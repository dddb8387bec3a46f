"""Equal-weight relations, defect curves, and the transitivity probe."""

from fractions import Fraction as Q

import pytest

from setmeans import (
    Answer,
    Cantor,
    DomainViolation,
    Finite,
    GeomSeq,
    Interval,
    MeanKind,
    Method,
    Tower,
    Trend,
    WeightKind,
    arith_mean,
    defect_curve,
    equal_weight,
    gen_corpus,
    normalize,
    normalize_blocks,
    transitivity_probe,
    weight_defect,
)


def bset(*blocks):
    return normalize_blocks(list(blocks))


def seq(a, w=Q(1), r=Q(1, 2)):
    return GeomSeq(Q(a), Q(w), Q(r))


def test_weight_defect_examples():
    d = weight_defect(bset(Finite((Q(1), Q(2)))), bset(Finite((Q(3), Q(4)))),
                      MeanKind.ARITH, Q(100))
    assert d.value == 0
    d = weight_defect(bset(Interval(Q(0), Q(2))), bset(Interval(Q(4), Q(5))),
                      MeanKind.AVG, Q(0))
    assert d.value == Q(13, 6) - Q(1 + Q(9, 2), 2)
    assert d.value == Q(-7, 12)
    d = weight_defect(bset(Finite((Q(0),))), bset(Finite((Q(0),))),
                      MeanKind.ARITH, Q(10))
    assert d.value == 0


def test_arith_defect_closed_form():
    # for finite sets the defect is exactly (C - D) + (m/(n+m) - 1/2) x
    for i, (e1, e2) in enumerate(
        zip(gen_corpus(61, 30, "finite"), gen_corpus(62, 30, "finite"))
    ):
        h1, h2 = normalize(e1), normalize(e2)
        p1, p2 = h1.finite_points(), h2.finite_points()
        n, m = len(p1), len(p2)
        x = Q(100 + i * 17)
        shifted = [p + x for p in p2]
        if set(p1) & set(shifted):
            continue
        c = arith_mean(list(p1) + list(p2))
        d = (arith_mean(p1) + arith_mean(p2)) / 2
        expect = (c - d) + (Q(m, n + m) - Q(1, 2)) * x
        got = weight_defect(h1, h2, MeanKind.ARITH, x)
        assert got.value == expect


def test_equal_weight_arith_cardinality():
    a = bset(Finite((Q(1), Q(2))))
    b = bset(Finite((Q(3), Q(4), Q(5))))
    for wk in WeightKind:
        assert equal_weight(a, b, MeanKind.ARITH, wk).answer is Answer.NO
    c = bset(Finite((Q(0), Q(7))))
    for wk in WeightKind:
        assert equal_weight(a, c, MeanKind.ARITH, wk).answer is Answer.YES


def test_equal_weight_avg_measures():
    a = bset(Interval(Q(0), Q(1)))
    b = bset(Interval(Q(4), Q(5)))
    assert equal_weight(a, b, MeanKind.AVG, WeightKind.IN_EQUALITY).answer is Answer.YES
    c = bset(Interval(Q(4), Q(6)))
    assert equal_weight(a, c, MeanKind.AVG, WeightKind.IN_BOUND).answer is Answer.NO
    # different dimensions can never balance
    d = bset(Cantor(Q(0), Q(1), 2, Q(1, 3)))
    assert equal_weight(a, d, MeanKind.AVG, WeightKind.IN_BOUND).answer is Answer.NO


def test_equal_weight_acc_levels():
    t1 = bset(Tower(2, Q(0), Q(1), Q(1, 4)))
    t2 = bset(Tower(2, Q(5), Q(1), Q(1, 5)))
    assert equal_weight(t1, t2, MeanKind.ACC, WeightKind.IN_BOUND).answer is Answer.YES
    s = bset(seq(0))
    assert equal_weight(t1, s, MeanKind.ACC, WeightKind.IN_BOUND).answer is Answer.NO
    two_seqs = bset(seq(0), seq(3))
    assert equal_weight(s, two_seqs, MeanKind.ACC, WeightKind.IN_BOUND).answer is Answer.NO


def test_equal_weight_lis():
    h1 = bset(seq(0), seq(1))
    h2 = bset(seq(0, r=Q(1, 3)), seq(2, r=Q(1, 3)))
    assert equal_weight(h1, h2, MeanKind.LIS, WeightKind.IN_BOUND).answer is Answer.YES
    assert equal_weight(h1, h2, MeanKind.LIS, WeightKind.IN_LIMIT).answer is Answer.NO
    h3 = bset(seq(5), seq(6))
    assert equal_weight(h1, h3, MeanKind.LIS, WeightKind.IN_LIMIT).answer is Answer.YES
    with pytest.raises(DomainViolation):
        equal_weight(bset(Finite((Q(1),))), h1, MeanKind.LIS, WeightKind.IN_BOUND)


def test_equal_weight_iso():
    h1 = bset(seq(0))
    h2 = bset(seq(7, w=Q(-2)))
    assert equal_weight(h1, h2, MeanKind.ISO, WeightKind.IN_LIMIT).answer is Answer.YES
    h3 = bset(seq(0, r=Q(1, 3)))
    assert equal_weight(h1, h3, MeanKind.ISO, WeightKind.IN_BOUND).answer is Answer.NO
    # two sequences against one: the counts cannot balance
    h4 = bset(seq(0), seq(5))
    assert equal_weight(h1, h4, MeanKind.ISO, WeightKind.IN_BOUND).answer is Answer.NO


def test_equal_weight_reflexive_in_equality():
    corpus = [normalize(e) for e in gen_corpus(67, 40, "mixed")]
    checked = 0
    for h in corpus:
        for kind in (MeanKind.ARITH, MeanKind.AVG, MeanKind.ACC, MeanKind.LIS):
            try:
                v = equal_weight(h, h, kind, WeightKind.IN_EQUALITY)
            except DomainViolation:
                continue
            assert v.answer is Answer.YES
            checked += 1
    assert checked > 60


def test_equal_weight_symmetry():
    corpus = [normalize(e) for e in gen_corpus(71, 30, "mixed")]
    checked = 0
    for i, h1 in enumerate(corpus):
        h2 = corpus[(i * 7 + 3) % len(corpus)]
        for kind in MeanKind:
            for wk in WeightKind:
                try:
                    a = equal_weight(h1, h2, kind, wk)
                    b = equal_weight(h2, h1, kind, wk)
                except DomainViolation:
                    continue
                assert a.answer == b.answer
                checked += 1
    assert checked > 100


def test_equal_weight_implication_chain():
    corpus = [normalize(e) for e in gen_corpus(73, 30, "mixed")]
    for i, h1 in enumerate(corpus):
        h2 = corpus[(i * 5 + 2) % len(corpus)]
        for kind in MeanKind:
            try:
                eq = equal_weight(h1, h2, kind, WeightKind.IN_EQUALITY)
                lim = equal_weight(h1, h2, kind, WeightKind.IN_LIMIT)
                bnd = equal_weight(h1, h2, kind, WeightKind.IN_BOUND)
            except DomainViolation:
                continue
            if eq.answer is Answer.YES:
                assert lim.answer is Answer.YES
            if lim.answer is Answer.YES:
                assert bnd.answer is Answer.YES


def test_defect_curve_trends():
    c = defect_curve(bset(Finite((Q(1), Q(2)))), bset(Finite((Q(3), Q(4), Q(5)))),
                     MeanKind.ARITH)
    assert c.trend is Trend.LINEAR_GROWTH
    assert abs(c.slope_estimate - (3 / 5 - 1 / 2)) < 1e-12
    c = defect_curve(bset(Finite((Q(1), Q(2)))), bset(Finite((Q(30), Q(41)))),
                     MeanKind.ARITH)
    assert c.trend is Trend.TO_ZERO
    # constant nonzero defect: bounded but not vanishing
    h1 = bset(seq(0), seq(1))
    h2 = bset(seq(0, r=Q(1, 3)), seq(2, r=Q(1, 3)))
    c = defect_curve(h1, h2, MeanKind.LIS)
    assert c.trend is Trend.BOUNDED


def test_transitivity_probe_arith_translates():
    h = bset(Finite((Q(0), Q(1))))
    t = transitivity_probe(h, bset(Finite((Q(2), Q(3)))), bset(Finite((Q(5), Q(6)))),
                           MeanKind.ARITH)
    assert all(v.value == 0 for _, v in t.samples if v.is_defined)
    assert t.trend is Trend.TO_ZERO


def test_transitivity_probe_avg():
    a = bset(Interval(Q(0), Q(1)))
    b = bset(Interval(Q(2), Q(3)))
    c = bset(Interval(Q(5), Q(6)))
    t = transitivity_probe(a, b, c, MeanKind.AVG)
    assert t.trend is Trend.TO_ZERO
    assert all(v.value == 0 for _, v in t.samples if v.is_defined)
    # asymmetric outer measures leave a linear residue
    t = transitivity_probe(a, bset(Interval(Q(2), Q(4))), bset(Interval(Q(5), Q(8))),
                           MeanKind.AVG)
    assert t.trend is Trend.LINEAR_GROWTH


def test_curve_samples_are_exact_for_exact_means():
    c = defect_curve(bset(Finite((Q(1), Q(3)))), bset(Finite((Q(2), Q(6)))),
                     MeanKind.ARITH)
    for x, v in c.samples:
        assert v.is_exact


def test_equal_weight_iso_sees_a_far_power_subsequence():
    # r**65 keeps a subsequence of seq(0, 1, r): both operands are one set
    r = Q(1, 2)
    h = bset(seq(0, r=r), seq(0, r=r**65))
    assert equal_weight(h, bset(seq(0, r=r)), MeanKind.ISO, WeightKind.IN_LIMIT).answer is Answer.YES


def test_equal_weight_iso_commensurable_coefficients():
    # two sequences of ratio 1/4 count 2/ln 4 = 1/ln 2, as one of ratio 1/2 does
    h1 = bset(seq(0, r=Q(1, 4)), seq(5, r=Q(1, 4)))
    v = equal_weight(h1, bset(seq(0)), MeanKind.ISO, WeightKind.IN_LIMIT)
    assert (v.answer, v.method) == (Answer.YES, Method.CLOSED_FORM)


def test_equal_weight_avg_exact_weights():
    # the two first-stage pieces of the middle-thirds set weigh as the whole
    halves = bset(Cantor(Q(0), Q(1, 3), 2, Q(1, 3)), Cantor(Q(2, 3), Q(1), 2, Q(1, 3)))
    whole = bset(Cantor(Q(0), Q(1), 2, Q(1, 3)))
    v = equal_weight(halves, whole, MeanKind.AVG, WeightKind.IN_LIMIT)
    assert (v.answer, v.method) == (Answer.YES, Method.CLOSED_FORM)
    # two families of dimension 1/2 on unit diameters weigh 1 each
    v = equal_weight(bset(Cantor(Q(0), Q(1), 2, Q(1, 4))), bset(Cantor(Q(0), Q(1), 3, Q(1, 9))),
                     MeanKind.AVG, WeightKind.IN_LIMIT)
    assert (v.answer, v.method) == (Answer.YES, Method.CLOSED_FORM)
