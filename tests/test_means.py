"""The five means: anchor values, domains, invariants, mean-relative bounds."""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from setmeans import (
    Cantor,
    DomainViolation,
    Finite,
    GeomSeq,
    IncomparableDimensions,
    Interval,
    LadderConfig,
    MeanKind,
    Tower,
    arith_mean,
    bounds,
    gen_corpus,
    k_bounds,
    mean_of,
    normalize,
    normalize_blocks,
    translate_set,
    union_sets,
)
from setmeans.blocks import _log_ratio
from setmeans.means import (
    DIM_ONE,
    DIM_ZERO,
    DimValue,
    compare_dims,
    mean_iso,
)


def bset(*blocks):
    return normalize_blocks(list(blocks))


def seq(a, w=Q(1), r=Q(1, 2)):
    return GeomSeq(Q(a), Q(w), Q(r))


def test_arith_mean_multiset_semantics():
    assert arith_mean([Q(1), Q(2)]) == Q(3, 2)
    # duplicates are counted: the mean of the combined multiset equals the
    # average of the two means exactly when the sizes allow it
    combined = arith_mean([Q(1), Q(2), Q(1, 2), Q(1), Q(3)])
    assert combined == Q(3, 2)
    assert combined == (arith_mean([Q(1), Q(2)]) + arith_mean([Q(1, 2), Q(1), Q(3)])) / 2
    # the set union reads differently
    assert arith_mean([Q(1, 2), Q(1), Q(2), Q(3)]) == Q(13, 8)


def test_mean_of_dispatch():
    assert mean_of(bset(Finite((Q(1), Q(2), Q(3)))), MeanKind.ARITH).value == 2
    acc = mean_of(bset(Interval(Q(0), Q(1))), MeanKind.ACC)
    assert acc.status == "undefined" and acc.reason == "infinite level"
    avg = mean_of(bset(Interval(Q(0), Q(2)), Interval(Q(4), Q(5))), MeanKind.AVG)
    assert avg.value == Q(13, 6)


def test_arith_on_infinite_is_undefined():
    assert mean_of(bset(seq(0)), MeanKind.ARITH).status == "undefined"


def test_lis_values():
    v = mean_of(bset(seq(0), GeomSeq(Q(1), Q(-1), Q(1, 2))), MeanKind.LIS)
    assert v.value == Q(1, 2)
    v = mean_of(bset(seq(0), Interval(Q(2), Q(3))), MeanKind.LIS)
    assert v.value == Q(3, 2)
    assert mean_of(bset(Finite((Q(1), Q(5)))), MeanKind.LIS).status == "undefined"


def test_acc_values():
    v = mean_of(bset(seq(0), seq(2)), MeanKind.ACC)
    assert v.value == 1
    v = mean_of(bset(Tower(2, Q(0), Q(1), Q(1, 4)), seq(5)), MeanKind.ACC)
    assert v.value == 0
    assert mean_of(bset(Finite((Q(2), Q(4)))), MeanKind.ACC).value == 3


@pytest.mark.parametrize("a", [Q(0), Q(1), Q(-3, 2)])
@pytest.mark.parametrize("r", [Q(1, 2), Q(1, 3), Q(1, 5)])
def test_iso_converges_to_anchor(a, r):
    v = mean_of(bset(GeomSeq(a, Q(1), r)), MeanKind.ISO)
    assert v.status == "approx"
    assert abs(v.approx - float(a)) < 1e-6


def test_iso_two_anchors():
    v = mean_of(bset(seq(0), seq(1)), MeanKind.ISO)
    assert abs(v.approx - 0.5) < 1e-6


def test_iso_domain_violation():
    with pytest.raises(DomainViolation):
        mean_iso(bset(Interval(Q(0), Q(1)), seq(2)))
    v = mean_of(bset(Interval(Q(0), Q(1)), seq(2)), MeanKind.ISO)
    assert v.status == "undefined"


def test_iso_ladder_monotone_refinement():
    from setmeans import isolated_outside

    h = bset(seq(0), Tower(2, Q(3), Q(1), Q(1, 5)))
    eps = Q(1, 2)
    prev: set = set()
    for _ in range(12):
        cur = set(isolated_outside(h, eps))
        assert prev <= cur
        prev = cur
        eps /= 2


def test_avg_values():
    assert mean_of(bset(Cantor(Q(0), Q(1), 2, Q(1, 3))), MeanKind.AVG).value == Q(1, 2)
    assert mean_of(bset(Finite((Q(1), Q(2), Q(3)))), MeanKind.AVG).value == 2
    v = mean_of(bset(seq(0)), MeanKind.AVG)
    assert v.status == "undefined"  # countably infinite at dimension zero


def test_avg_equals_arith_on_finite_sets():
    for e in gen_corpus(3, 60, "finite"):
        h = normalize(e)
        assert mean_of(h, MeanKind.AVG) == mean_of(h, MeanKind.ARITH)


def test_avg_cantor_families():
    # equal diameters cancel the common irrational weight exactly
    v = mean_of(
        bset(Cantor(Q(0), Q(1), 2, Q(1, 4)), Cantor(Q(4), Q(5), 2, Q(1, 4))),
        MeanKind.AVG,
    )
    assert v.value == Q(5, 2)
    # diameters related by a power of 1/r give rational weight ratios:
    # s = 1/2 here, so the double-size block weighs 4**(1/2) = 2 times more
    v = mean_of(
        bset(Cantor(Q(0), Q(1), 2, Q(1, 4)), Cantor(Q(4), Q(8), 2, Q(1, 4))),
        MeanKind.AVG,
    )
    assert v.is_exact
    assert v.value == (1 * Q(1, 2) + 2 * Q(6)) / 3
    # incommensurable diameters fall back to a numeric value
    v = mean_of(
        bset(Cantor(Q(0), Q(1), 2, Q(1, 4)), Cantor(Q(4), Q(7), 2, Q(1, 4))),
        MeanKind.AVG,
    )
    assert v.status == "approx"
    w = 3 ** 0.5
    assert abs(v.approx - (0.5 + w * 5.5) / (1 + w)) < 1e-9


def test_avg_dimension_dominance():
    # the interval dominates the cantor dust and the sequence
    v = mean_of(
        bset(Interval(Q(0), Q(1)), Cantor(Q(2), Q(3), 2, Q(1, 3)), seq(5)),
        MeanKind.AVG,
    )
    assert v.value == Q(1, 2)
    # among cantor blocks the higher dimension wins: log2/log3 > log2/log4
    v = mean_of(
        bset(Cantor(Q(0), Q(1), 2, Q(1, 3)), Cantor(Q(4), Q(5), 2, Q(1, 4))),
        MeanKind.AVG,
    )
    assert v.value == Q(1, 2)


def test_dim_comparisons():
    assert compare_dims(DIM_ZERO, DIM_ONE) < 0
    d_third = DimValue("log_ratio", m=2, invr=Q(3))
    d_quarter = DimValue("log_ratio", m=2, invr=Q(4))
    assert compare_dims(d_quarter, d_third) < 0
    assert compare_dims(DIM_ZERO, d_third) < 0
    assert compare_dims(d_third, DIM_ONE) < 0
    # log 2 / log 4 == log 3 / log 9 == 1/2 despite different parameters
    assert compare_dims(DimValue("log_ratio", m=2, invr=Q(4)),
                        DimValue("log_ratio", m=3, invr=Q(9))) == 0
    # log 4 / log 9 == log 2 / log 3: a shared perfect power cancels
    assert compare_dims(DimValue("log_ratio", m=4, invr=Q(9)),
                        DimValue("log_ratio", m=2, invr=Q(3))) == 0
    # the dimensions above are equal, so the blocks form one family
    v = mean_of(
        bset(Cantor(Q(0), Q(1), 2, Q(1, 4)), Cantor(Q(4), Q(5), 3, Q(1, 9))),
        MeanKind.AVG,
    )
    assert v.value == Q(5, 2)


def test_dim_incomparable_raises():
    # ratios differing by 10**-1500 cannot be separated at any working
    # precision the comparison is willing to try
    eps_den = 10**1500
    near3 = Q(3 * eps_den + 1, eps_den)
    with pytest.raises(IncomparableDimensions):
        compare_dims(DimValue("log_ratio", m=2, invr=Q(3)),
                     DimValue("log_ratio", m=2, invr=near3))


def test_shift_invariance_exact_means():
    corpus = gen_corpus(8, 50, "mixed")
    for i, e in enumerate(corpus):
        h = normalize(e)
        x = Q(i - 25, 4)
        for kind in (MeanKind.ARITH, MeanKind.LIS, MeanKind.ACC, MeanKind.AVG):
            v = mean_of(h, kind)
            if not v.is_defined:
                continue
            vs = mean_of(translate_set(h, x), kind)
            if v.is_exact:
                assert vs.value == v.value + x
            else:
                assert abs(vs.approx - (v.approx + float(x))) <= 2e-9


def test_shift_invariance_iso():
    for a, r in [(Q(0), Q(1, 2)), (Q(2), Q(1, 3))]:
        h = bset(GeomSeq(a, Q(1), r), GeomSeq(a + 3, Q(1), r))
        v = mean_of(h, MeanKind.ISO)
        vs = mean_of(translate_set(h, Q(7, 3)), MeanKind.ISO)
        assert abs(vs.approx - (v.approx + 7 / 3)) <= 2e-9


def test_strong_internality():
    corpus = gen_corpus(12, 60, "mixed")
    for e in corpus:
        h = normalize(e)
        bd = bounds(h)
        for kind in MeanKind:
            v = mean_of(h, kind)
            if not v.is_defined:
                continue
            if kind is MeanKind.ARITH:
                lo, hi = bd.inf, bd.sup
            else:
                if bd.acc_inf is None:
                    continue
                lo, hi = bd.acc_inf, bd.acc_sup
            val = v.value if v.is_exact else Q(v.approx)
            slack = Q(0) if v.is_exact else Q(2, 10**9)
            assert lo - slack <= val <= hi + slack


def test_self_shift_invariance():
    corpus = gen_corpus(21, 40, "mixed")
    for i, e in enumerate(corpus):
        h = normalize(e)
        bd = bounds(h)
        x = (bd.sup - bd.inf) + 1 + Q(i % 3)
        u = union_sets(h, translate_set(h, x))
        for kind in (MeanKind.ARITH, MeanKind.LIS, MeanKind.ACC, MeanKind.AVG):
            v = mean_of(h, kind)
            if not v.is_defined:
                continue
            vu = mean_of(u, kind)
            assert vu.value == v.value + x / 2


def test_ladder_config_validation():
    with pytest.raises(ValueError):
        LadderConfig(eps0=Q(0))
    with pytest.raises(ValueError):
        LadderConfig(shrink=Q(1))
    with pytest.raises(ValueError):
        LadderConfig(max_steps=2)


def test_k_bounds_examples():
    h = bset(seq(0), seq(1), seq(2), seq(3))
    kb = k_bounds(h, MeanKind.LIS)
    assert kb.k_liminf.value == 0
    assert kb.k_limsup.value == 3
    kb = k_bounds(bset(Interval(Q(0), Q(1))), MeanKind.AVG)
    assert (kb.k_liminf.value, kb.k_limsup.value) == (0, 1)
    kb = k_bounds(bset(Finite((Q(0), Q(10)))), MeanKind.ARITH)
    assert (kb.k_liminf.value, kb.k_limsup.value) == (0, 10)


def test_k_bounds_acc_tower():
    h = bset(Tower(2, Q(0), Q(1), Q(1, 4)), seq(5))
    kb = k_bounds(h, MeanKind.ACC)
    # any positive lower cut strips the tower's deep structure
    assert kb.k_liminf.value == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mean_acc_walks_the_derived_sets_once(monkeypatch, k):
    from setmeans import means, sets

    calls = []
    real = sets.derived_set

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(sets, "derived_set", counted)
    monkeypatch.setattr(means, "derived_set", counted)
    h = bset(Tower(k, Q(0), Q(1), Q(1, 4)))
    assert mean_of(h, MeanKind.ACC).value == 0
    # D^1 .. D^k, then the empty D^(k+1) that ends the walk
    assert len(calls) == k + 1


_PROPERTY = settings(max_examples=100, deadline=2000, database=None)


@_PROPERTY
@given(p=st.integers(1, 60), q=st.integers(1, 60), i=st.integers(-40, 40),
       j=st.integers(-40, 40).filter(bool))
def test_log_ratio_of_powers(p, q, i, j):
    assume(p != q)
    b = Q(p, q)
    assert _log_ratio(b**i, b**j) == Q(i, j)


@_PROPERTY
@given(p=st.integers(2, 200), q=st.integers(2, 200), i=st.integers(-20, 20).filter(bool),
       j=st.integers(-20, 20).filter(bool))
def test_log_ratio_of_coprime_bases_is_none(p, q, i, j):
    assume(math.gcd(p, q) == 1)
    assert _log_ratio(Q(p) ** i, Q(q) ** j) is None


@_PROPERTY
@given(c=st.integers(2, 12), a=st.integers(1, 30), b=st.integers(1, 30),
       c2=st.integers(2, 12), a2=st.integers(1, 30), b2=st.integers(1, 30),
       m=st.integers(2, 12), n=st.integers(2, 60))
def test_compare_dims_antisymmetric_and_exact_on_rationals(c, a, b, c2, a2, b2, m, n):
    # log c**a / log c**(a+b) is the rational a / (a + b)
    d1 = DimValue("log_ratio", m=c**a, invr=Q(c ** (a + b)))
    d2 = DimValue("log_ratio", m=c2**a2, invr=Q(c2 ** (a2 + b2)))
    t1, t2 = Q(a, a + b), Q(a2, a2 + b2)
    assert compare_dims(d1, d2) == (t1 > t2) - (t1 < t2)
    other = DimValue("log_ratio", m=m, invr=Q(n))
    for x, y in ((d1, d2), (d1, other), (other, d2)):
        assert compare_dims(x, y) == -compare_dims(y, x)
