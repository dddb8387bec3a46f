"""Equal-weight relations and defect curves."""

from fractions import Fraction as Q

import mpmath
import pytest

from setmeans import (
    Answer,
    DEFAULT_CONFIG,
    Cantor,
    DefectCurve,
    DomainViolation,
    Finite,
    GeomSeq,
    Interval,
    LadderConfig,
    MeanKind,
    MeanValue,
    SetMeansError,
    Tower,
    Trend,
    ValidationError,
    WeightKind,
    arith_mean,
    bounds,
    defect_curve,
    diameter,
    equal_weight,
    gen_corpus,
    mean_of,
    normalize,
    normalize_blocks,
    parse,
    translate_set,
    union_sets,
    weight_defect,
)
from setmeans import cli
from setmeans.laws import PROFILES
from setmeans.means import combine, compare_orders, weight_of


def bset(*blocks):
    return normalize_blocks(list(blocks))


def seq(a, w=Q(1), r=Q(1, 2)):
    return GeomSeq(Q(a), Q(w), Q(r))


def translate_grid(xmax, *hs):
    """base * 10**j for j = 0..xmax, then their negatives, base the largest
    diameter of the sets or 1 when all are points: the translates the tests
    sample a defect at."""
    d = max(diameter(h) for h in hs)
    base = d if d > 0 else 1
    xs = [base * 10**j for j in range(xmax + 1)]
    return xs + [-x for x in xs]


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
    assert c.right.beta == c.left.beta == MeanValue.exact(Q(3, 5) - Q(1, 2))
    c = defect_curve(bset(Finite((Q(1), Q(2)))), bset(Finite((Q(30), Q(41)))),
                     MeanKind.ARITH)
    assert c.trend is Trend.TO_ZERO
    # constant nonzero defect: bounded but not vanishing
    h1 = bset(seq(0), seq(1))
    h2 = bset(seq(0, r=Q(1, 3)), seq(2, r=Q(1, 3)))
    c = defect_curve(h1, h2, MeanKind.LIS)
    assert c.trend is Trend.BOUNDED


@pytest.mark.parametrize("profile", PROFILES)
def test_a_curves_trend_is_the_equal_weight_decision(profile):
    # TO_ZERO exactly when the sets have equal weight (in limit, which is
    # lis's vanishing defect), INCONCLUSIVE exactly when that is undecided,
    # and otherwise growth, or under lis a bounded defect
    sets = [normalize(e) for e in gen_corpus(5, 20, profile)]
    answers = set()
    for i, h1 in enumerate(sets):
        for h2 in (sets[(i * 3 + 1) % len(sets)], translate_set(h1, Q(7, 2))):
            for kind in MeanKind:
                try:
                    v = equal_weight(h1, h2, kind, WeightKind.IN_LIMIT)
                except DomainViolation:
                    continue
                trend = defect_curve(h1, h2, kind).trend
                apart = Trend.BOUNDED if kind is MeanKind.LIS else Trend.LINEAR_GROWTH
                assert trend is {Answer.YES: Trend.TO_ZERO, Answer.NO: apart,
                                 Answer.INCONCLUSIVE: Trend.INCONCLUSIVE}[v.answer], (i, kind)
                answers.add((kind, v.answer))
    assert {a for _, a in answers} == {Answer.YES, Answer.NO}
    assert len({k for k, _ in answers}) >= 2


def test_a_slow_growth_reads_as_growth():
    # the defect lies below tol = 1e-9 at 10**4 diameters, yet the count
    # coefficients differ: beta = (W2 - W1) / (2*(W1 + W2)), read within tol
    # as an approximate mean, which the 300-bit beta lies within
    h1, h2 = normalize(parse("seq(0,1,1/1000000)")), normalize(parse("seq(0,1,1/1000001)"))
    assert equal_weight(h1, h2, MeanKind.ISO, WeightKind.IN_BOUND).answer is Answer.NO
    tol = DEFAULT_CONFIG.tol
    assert all(abs(weight_defect(h1, h2, MeanKind.ISO, x).as_float()) < tol
               for x in translate_grid(4, h1, h2))
    c = defect_curve(h1, h2, MeanKind.ISO)
    assert c.trend is Trend.LINEAR_GROWTH
    beta = c.right.beta
    assert c.left.beta == beta and c.right.alpha == c.left.alpha == MeanValue.exact(0)
    assert (f"{beta.approx:.15g}", beta.tol) == ("-1.80955937099412e-08", tol)
    ref = reference_trend(h1, h2, MeanKind.ISO)[1]
    assert f"{float(ref):.15g}" == "-1.80955937099388e-08"
    assert abs(beta.approx - ref) <= beta.tol


def test_undecided_weights_read_inconclusive():
    # two Cantor blocks whose weights differ by less than 2**-4096
    n = 10**1300
    h1 = normalize(parse("cantor(0,1,2,1/3)"))
    h2 = normalize(parse(f"cantor(5,{6 * n + 1}/{n},2,1/3)"))
    assert equal_weight(h1, h2, MeanKind.AVG, WeightKind.IN_BOUND).answer is Answer.INCONCLUSIVE
    c = defect_curve(h1, h2, MeanKind.AVG)
    assert c.trend is Trend.INCONCLUSIVE
    undefined = MeanValue.undefined("the weights are numerically inseparable")
    for tail in (c.right, c.left):
        assert tail.alpha == tail.beta == undefined


def test_an_operand_outside_the_domain_reads_inconclusive():
    h1, h2 = bset(seq(0)), bset(Finite((Q(1), Q(2))))
    c = defect_curve(h1, h2, MeanKind.ARITH)
    assert c.trend is Trend.INCONCLUSIVE
    undefined = MeanValue.undefined(mean_of(h1, MeanKind.ARITH).reason)
    assert undefined.reason
    for tail in (c.right, c.left):
        assert tail.alpha == tail.beta == undefined
    assert not any(weight_defect(h1, h2, MeanKind.ARITH, x).is_defined
                   for x in translate_grid(4, h1, h2))


def sampled_trend(samples, tol: float):
    """(Trend, slope) read from the last three positive samples against fixed
    thresholds (10*tol, |s2|/1000), as defect curves once read their trend:
    a sampled oracle of the equal-weight trend, which a slow growth fools."""
    pos = [(x, v) for x, v in samples if x > 0 and v.is_defined]
    if len(pos) < 3:
        return Trend.INCONCLUSIVE, None
    (x1, v1), (x2, v2), (x3, v3) = pos[-3:]
    f1, f2, f3 = (Q(v.as_float()) if not v.is_exact else v.value for v in (v1, v2, v3))
    qtol = Q(tol)
    if max(abs(f1), abs(f2), abs(f3)) <= qtol:
        return Trend.TO_ZERO, 0.0
    s1 = (f2 - f1) / (x2 - x1)
    s2 = (f3 - f2) / (x3 - x2)
    if abs(s2 - s1) <= max(qtol, abs(s2) / 1000) and abs(s2) > 10 * qtol:
        return Trend.LINEAR_GROWTH, float(s2)
    if abs(f1) > abs(f2) > abs(f3) and abs(f3) < qtol:
        return Trend.TO_ZERO, float(s2)
    if max(f1, f2, f3) - min(f1, f2, f3) <= 10 * qtol:
        return Trend.BOUNDED, float(s2)
    return Trend.INCONCLUSIVE, float(s2)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_sampled_trend_agrees_where_it_decides(seed):
    sets = [normalize(e) for profile in PROFILES for e in gen_corpus(seed, 8, profile)]
    decided = 0
    for i, h1 in enumerate(sets):
        h2 = sets[(i * 5 + 1) % len(sets)]
        for kind in MeanKind:
            try:
                curve = defect_curve(h1, h2, kind)
                samples = grid_samples(h1, h2, kind)
            except SetMeansError:
                continue
            trend, slope = sampled_trend(samples, DEFAULT_CONFIG.tol)
            if trend is Trend.INCONCLUSIVE:
                continue
            decided += 1
            assert trend is curve.trend, (i, kind)
            if trend is Trend.LINEAR_GROWTH:
                assert slope == pytest.approx(curve.right.beta.as_float(), rel=1e-9), (i, kind)
    assert decided >= 80
    # where every sample lies below tol, the thresholds read a vanishing defect
    h1, h2 = normalize(parse("seq(0,1,1/1000000)")), normalize(parse("seq(0,1,1/1000001)"))
    curve = defect_curve(h1, h2, MeanKind.ISO)
    assert sampled_trend(grid_samples(h1, h2, MeanKind.ISO), DEFAULT_CONFIG.tol) == (Trend.TO_ZERO, 0.0)
    assert curve.trend is Trend.LINEAR_GROWTH


def grid_samples(h1, h2, kind):
    """The defect at each translate of the grid, in order."""
    return [(x, weight_defect(h1, h2, kind, x)) for x in sorted(translate_grid(4, h1, h2))]


def test_curve_samples_are_exact_for_exact_means():
    h1, h2 = bset(Finite((Q(1), Q(3)))), bset(Finite((Q(2), Q(6))))
    assert all(v.is_exact for _, v in grid_samples(h1, h2, MeanKind.ARITH))
    c = defect_curve(h1, h2, MeanKind.ARITH)
    for tail in (c.right, c.left):
        assert tail.alpha.is_exact and tail.beta.is_exact


def test_equal_weight_iso_sees_a_far_power_subsequence():
    # r**65 keeps a subsequence of seq(0, 1, r): both operands are one set
    r = Q(1, 2)
    h = bset(seq(0, r=r), seq(0, r=r**65))
    assert equal_weight(h, bset(seq(0, r=r)), MeanKind.ISO, WeightKind.IN_LIMIT).answer is Answer.YES


def test_equal_weight_iso_commensurable_coefficients():
    # two sequences of ratio 1/4 count 2/ln 4 = 1/ln 2, as one of ratio 1/2 does
    h1 = bset(seq(0, r=Q(1, 4)), seq(5, r=Q(1, 4)))
    v = equal_weight(h1, bset(seq(0)), MeanKind.ISO, WeightKind.IN_LIMIT)
    assert v.answer is Answer.YES


def test_equal_weight_avg_exact_weights():
    # the two first-stage pieces of the middle-thirds set weigh as the whole
    halves = bset(Cantor(Q(0), Q(1, 3), 2, Q(1, 3)), Cantor(Q(2, 3), Q(1), 2, Q(1, 3)))
    whole = bset(Cantor(Q(0), Q(1), 2, Q(1, 3)))
    v = equal_weight(halves, whole, MeanKind.AVG, WeightKind.IN_LIMIT)
    assert v.answer is Answer.YES
    # two families of dimension 1/2 on unit diameters weigh 1 each
    v = equal_weight(bset(Cantor(Q(0), Q(1), 2, Q(1, 4))), bset(Cantor(Q(0), Q(1), 3, Q(1, 9))),
                     MeanKind.AVG, WeightKind.IN_LIMIT)
    assert v.answer is Answer.YES


def test_equal_weight_iso_counts_shared_points_once():
    # 4**-n and 8**-n share every 2**-6n: 1/ln 4 + 1/ln 8 - 1/ln 64 = 2/ln 8,
    # the count of two disjoint sequences of ratio 1/8
    h1 = normalize(parse("seq(0,1,1/4) U seq(0,1,1/8)"))
    h2 = normalize(parse("seq(5,1,1/8) U seq(7,1,1/8)"))
    v = equal_weight(h1, h2, MeanKind.ISO, WeightKind.IN_BOUND)
    assert v.answer is Answer.YES


def test_equal_weight_iso_compares_class_by_class():
    # 2/ln 2 + 1/ln 3 on each side: ratios 1/2 and 1/4 form one class, 1/3 another
    h1 = normalize(parse("seq(0,1,1/2) U seq(2,1,1/3) U seq(4,1,1/4) U seq(6,1,1/4)"))
    h2 = normalize(parse("seq(0,1,1/2) U seq(2,1,1/2) U seq(4,1,1/3)"))
    v = equal_weight(h1, h2, MeanKind.ISO, WeightKind.IN_BOUND)
    assert v.answer is Answer.YES


def test_equal_weight_avg_across_families_at_a_rational_dimension():
    # dimension 1/2 in both families: 4**(1/2) = 2 = 1 + 1
    h1 = normalize(parse("cantor(0,4,2,1/4)"))
    h2 = normalize(parse("cantor(0,1,3,1/9) U cantor(5,6,3,1/9)"))
    v = equal_weight(h1, h2, MeanKind.AVG, WeightKind.IN_BOUND)
    assert v.answer is Answer.YES


def union_evaluation(h1, h2, kind, x, cfg=DEFAULT_CONFIG):
    """K(H1 u (H2+x)), K(H1), K(H2+x) from the built union and translate."""
    shifted = translate_set(h2, x)
    return (mean_of(union_sets(h1, shifted), kind, cfg), mean_of(h1, kind, cfg),
            mean_of(shifted, kind, cfg))


def union_defect(h1, h2, kind, x, cfg=DEFAULT_CONFIG):
    """The defect at x from union_evaluation."""
    return combine(lambda u, a, b: u - (a + b) / 2, *union_evaluation(h1, h2, kind, x, cfg),
                   tol=cfg.tol)


def separates(h1, h2, x):
    b1, b2 = bounds(h1), bounds(h2)
    return b2.inf + x > b1.sup or b2.sup + x < b1.inf


def reference_trend(h1, h2, kind, cfg=DEFAULT_CONFIG):
    """(Trend, slope) of the equal-weight decision, from the operands' bounds
    and Weights: under lis the accumulation diameters, else the slope
    beta = (W2 - W1) / (2*(W1 + W2)) of the separated defect, -1/2 or 1/2
    when one order is higher.  beta is a Q for rational totals, else an mpf
    summed from the terms' enclosures at 300 bits."""
    if not (mean_of(h1, kind, cfg).is_defined and mean_of(h2, kind, cfg).is_defined):
        return Trend.INCONCLUSIVE, None
    if kind is MeanKind.LIS:
        (a1, s1), (a2, s2) = ((b.acc_inf, b.acc_sup) for b in (bounds(h1), bounds(h2)))
        return (Trend.TO_ZERO if s1 - a1 == s2 - a2 else Trend.BOUNDED), Q(0)
    w1, w2 = weight_of(h1, kind), weight_of(h2, kind)
    higher = compare_orders(w1.order, w2.order)
    differ = higher or w1.compare_magnitude(w2)
    if differ is None:
        return Trend.INCONCLUSIVE, None
    if not differ:
        return Trend.TO_ZERO, Q(0)
    if higher:
        return Trend.LINEAR_GROWTH, Q(-higher, 2)
    if w1.total is not None and w2.total is not None:
        return Trend.LINEAR_GROWTH, beta(Q(w1.total), Q(w2.total))
    with mpmath.workprec(300):
        return Trend.LINEAR_GROWTH, beta(*(mpmath.fsum(term(w, t) for t in w.terms)
                                           for w in (w1, w2)))


def beta(t1, t2):
    return (t2 - t1) / (2 * (t1 + t2))


def term(w, t):
    """A Weight's term as an mpf: its enclosure's lower end at 300 bits, or
    its count c at iso's degree 0, where it has no ratio to enclose."""
    if w.order == 0:
        return mpmath.mpf(t[0].numerator) / t[0].denominator
    return mpmath.mp.make_mpf(w.enclose(t, 300)[0])


def assert_reference_trend(curve, h1, h2, kind, cfg=DEFAULT_CONFIG):
    """curve's trend is reference_trend's, and both tails' beta that slope:
    exactly a rational one, and the 300-bit one within beta's tol (or, for a
    beta that one class makes exact, to a float's precision); an undecided
    trend has no beta."""
    trend, slope = reference_trend(h1, h2, kind, cfg)
    assert curve.trend is trend
    for b in (curve.right.beta, curve.left.beta):
        if slope is None:
            assert not b.is_defined
        elif isinstance(slope, Q):
            assert b == MeanValue.exact(slope)
        else:
            assert abs(b.as_float() - slope) <= (b.tol or 1e-15)


def tail_translates(curve, h1, h2):
    """(tail, x) at the grid's translates strictly beyond each tail's
    threshold, and at the threshold moved 1 past it."""
    xs, right, left = translate_grid(4, h1, h2), curve.right, curve.left
    return ([(right, x) for x in xs if x > right.threshold] + [(right, right.threshold + 1)]
            + [(left, x) for x in xs if x < left.threshold] + [(left, left.threshold - 1)])


def assert_tails_are_the_defect(curve, h1, h2, kind, cfg=DEFAULT_CONFIG):
    """At every translate of tail_translates, alpha + beta*x is the defect of
    the built union and translate: exactly where the three are exact, else
    within alpha's tol, |x| times beta's and the union defect's summed.  An
    undefined defect leaves alpha and beta undefined; they are also undefined
    where an undecided comparison of the Weights makes the trend
    INCONCLUSIVE.  Returns how many translates were checked."""
    checked = 0
    for tail, x in tail_translates(curve, h1, h2):
        want = union_defect(h1, h2, kind, x, cfg)
        alpha, beta = tail.alpha, tail.beta
        assert alpha.is_defined == beta.is_defined
        if not want.is_defined:
            assert not alpha.is_defined, x
            continue
        if not alpha.is_defined:
            assert curve.trend is Trend.INCONCLUSIVE
            continue
        if alpha.is_exact and beta.is_exact and want.is_exact:
            assert alpha.value + beta.value * x == want.value, x
        else:
            tol = (alpha.tol or 0) + abs(float(x)) * (beta.tol or 0) + (want.tol or 0)
            assert abs(alpha.as_float() + beta.as_float() * float(x) - want.as_float()) <= tol, x
        checked += 1
    return checked


@pytest.mark.parametrize("seed", [3, 11])
def test_defect_curves_equal_the_union_evaluation(seed):
    # whole curves, both tails, against the built unions beyond each
    # threshold; a curve that raises must raise as its reference does
    sets = [normalize(e) for profile, n in (("mixed", 24), ("sequences", 12), ("cantor", 12))
            for e in gen_corpus(seed, n, profile)]
    curves = checked = approx = 0
    for i, h1 in enumerate(sets):
        h2 = sets[(i * 5 + 1) % len(sets)]
        for kind in MeanKind:
            try:
                curve = defect_curve(h1, h2, kind)
            except SetMeansError as exc:
                with pytest.raises(type(exc)):
                    union_defect(h1, h2, kind, bounds(h1).sup - bounds(h2).inf + 1)
                continue
            assert_reference_trend(curve, h1, h2, kind)
            checked += assert_tails_are_the_defect(curve, h1, h2, kind)
            curves += 1
            approx += curve.right.alpha.is_defined and not curve.right.alpha.is_exact
    assert curves >= 100 and checked >= 800 and approx > 0


def test_touching_hulls_take_the_union_evaluation():
    # {0,1} u ({0,3}+1) = {0,1,4} shares the point 1: its mean is 5/3, where
    # the count-weighted combination of the operands would give 3/2
    h1, h2, x = bset(Finite((Q(0), Q(1)))), bset(Finite((Q(0), Q(3)))), Q(1)
    union, k1, k2 = union_evaluation(h1, h2, MeanKind.ARITH, x)
    assert union.value == Q(5, 3)
    defect = weight_defect(h1, h2, MeanKind.ARITH, x).value
    assert defect == Q(5, 3) - (k1.value + k2.value) / 2
    # so the right tail, which starts at x, holds only strictly past it
    tail = defect_curve(h1, h2, MeanKind.ARITH).right
    assert tail.threshold == x
    assert tail.alpha.value + tail.beta.value * x != defect
    assert tail.alpha.value + tail.beta.value * (x + 1) == weight_defect(h1, h2, MeanKind.ARITH, x + 1).value


def test_iso_and_cantor_separated_samples_are_read():
    cases = [
        # iso counts 1/ln 2 and 1/ln 3
        (bset(seq(0)), bset(seq(0, r=Q(1, 3))), MeanKind.ISO),
        # Cantor weights 1 and 2**(log 2/log 3) at one dimension: "terms" weights
        (bset(Cantor(Q(0), Q(1), 2, Q(1, 3))), bset(Cantor(Q(0), Q(2), 2, Q(1, 3))), MeanKind.AVG),
    ]
    for h1, h2, kind in cases:
        for x in (Q(10), Q(-10)):
            union, k1, k2 = union_evaluation(h1, h2, kind, x)
            # K(H1) and K(H2+x) are exact, the union's mean is not
            assert k1.is_exact and k2.is_exact and not union.is_exact
            got = weight_defect(h1, h2, kind, x)
            assert got == union_defect(h1, h2, kind, x) and not got.is_exact


def test_cantor_classes_do_not_depend_on_the_union_block_order():
    # (1, 4, 9) relates to (1, 2, 3) and to (3, 2, 3) alike, across the
    # families: the diameter ratios 1 = 9**0 and 3 = 9**(1/2) give the weight
    # ratios 4**0 = 1 and 4**(1/2) = 2.  So the union has one class and an
    # exact mean whichever operand's blocks come first.
    h1 = normalize(parse("cantor(0,1,4,1/9)"))
    h2 = normalize(parse("cantor(0,1,2,1/3) U cantor(2,5,2,1/3)"))
    for x, union in ((Q(10), Q(19, 2)), (Q(-10), Q(-11, 2))):
        u, k1, k2 = union_evaluation(h1, h2, MeanKind.AVG, x)
        assert u == MeanValue.exact(union)
        got = weight_defect(h1, h2, MeanKind.AVG, x)
        assert got == MeanValue.exact(union - (k1.value + k2.value) / 2)
    for x, defect in grid_samples(h1, h2, MeanKind.AVG):
        assert defect == union_defect(h1, h2, MeanKind.AVG, x)
        assert defect.is_exact
    # one class makes beta exact, and with it alpha
    curve = defect_curve(h1, h2, MeanKind.AVG)
    assert curve.right.alpha.is_exact and curve.right.beta.is_exact
    assert assert_tails_are_the_defect(curve, h1, h2, MeanKind.AVG) > 0


def test_lis_reads_the_defect_where_the_hulls_overlap():
    # (H1 u H2+x)' = H1' u (H2+x)' at every x, so where H2+x's hull
    # touches, crosses or lies inside H1's the defect is exact, half the
    # joint accumulation bounds' sum less K1 + K2 + x
    h1 = normalize(parse("seq(0,1,1/2) U [2,3] U {5}"))
    h2 = normalize(parse("cantor(0,1,2,1/3) U seq(1,1,1/3)"))
    (b1, b2), k1, k2 = (bounds(h1), bounds(h2)), mean_of(h1, MeanKind.LIS), mean_of(h2, MeanKind.LIS)
    for x in (Q(-4, 3), Q(-1), Q(-1, 2), Q(0), Q(1, 3), Q(1), Q(2), Q(3), Q(4), Q(5)):
        assert not separates(h1, h2, x)
        got = weight_defect(h1, h2, MeanKind.LIS, x)
        assert got.is_exact and got == union_defect(h1, h2, MeanKind.LIS, x), x
        lo, hi = min(b1.acc_inf, b2.acc_inf + x), max(b1.acc_sup, b2.acc_sup + x)
        assert got.value == (lo + hi - x - k1.value - k2.value) / 2, x
    # a finite operand has no lis mean: the union's evaluation says why
    h3 = bset(Finite((Q(0), Q(1))))
    got = weight_defect(h1, h3, MeanKind.LIS, Q(1))
    assert not got.is_defined and got == union_defect(h1, h3, MeanKind.LIS, Q(1))


@pytest.mark.parametrize("kind", list(MeanKind))
def test_a_translate_that_is_not_rational_is_a_validation_error(kind):
    # 1/2 puts the hulls across each other, 5/2 apart; translate_set checks x
    # on either side
    h1, h2 = normalize(parse("seq(0,1,1/2)")), normalize(parse("seq(0,1,1/3)"))
    for x in (0.5, 2.5):
        with pytest.raises(ValidationError, match="expected a rational"):
            weight_defect(h1, h2, kind, x)


@pytest.mark.parametrize("kind, text1, text2", [
    (MeanKind.ARITH, "{0,1,5}", "{0,6}"),
    (MeanKind.ACC, "seq(0,1,1/2) U {3}", "tower(2,0,1/4)"),
    (MeanKind.AVG, "[0,2] U {7}", "[0,1] U [3,4]"),
    # equal dimensions, Cantor weights without a rational total
    (MeanKind.AVG, "cantor(0,1,2,1/3)", "cantor(0,2,4,1/9)"),
    # one class of count terms
    (MeanKind.ISO, "seq(0,1,1/2)", "seq(1,1,1/4)"),
    (MeanKind.LIS, "seq(0,1,1/2) U [2,3]", "cantor(0,1,2,1/3)"),
])
def test_a_curve_of_exact_means_builds_unions_only_where_the_hulls_meet(monkeypatch, kind,
                                                                         text1, text2):
    import setmeans.weigh as weigh

    h1, h2 = normalize(parse(text1)), normalize(parse(text2))
    assert mean_of(h1, kind).is_exact and mean_of(h2, kind).is_exact
    shifts, unions = [], []

    def translated(h, x):
        shifts.append(x)
        return translate_set(h, x)

    def united(*hs):
        unions.append(hs)
        return union_sets(*hs)

    monkeypatch.setattr(weigh, "translate_set", translated)
    monkeypatch.setattr(weigh, "union_sets", united)
    curve = defect_curve(h1, h2, kind)
    # a curve builds no set; its tails are checked against the unions the
    # reference builds
    assert shifts == unions == []
    assert assert_tails_are_the_defect(curve, h1, h2, kind) > 0


@pytest.mark.parametrize("seed", [101, 9001])
@pytest.mark.parametrize("workload", ["query-exact", "query-iso"])
def test_benchmark_weigh_curves_equal_the_built_unions(workload, seed):
    # every weigh query the benchmark replays, read as the CLI reads it; the
    # CLI's curve, read with its verdict, is the curve read alone
    import setmeans
    from test_argv import _workloads

    ops = [op for op in _workloads().build(setmeans, workload, seed).ops if op.command == "weigh"]
    raised = checked = 0
    for op in ops:
        args = cli._read_argv(op.argv)
        kind, cfg = MeanKind(args.mean), LadderConfig(tol=args.tol)
        h1, h2 = normalize(parse(args.h1)), normalize(parse(args.h2))
        try:
            curve = defect_curve(h1, h2, kind, cfg)
        except SetMeansError as exc:
            with pytest.raises(type(exc)):
                union_defect(h1, h2, kind, bounds(h1).sup - bounds(h2).inf + 1, cfg)
            raised += 1
            continue
        assert_reference_trend(curve, h1, h2, kind, cfg)
        checked += assert_tails_are_the_defect(curve, h1, h2, kind, cfg)
        code, rep = cli.run_command(op.argv)
        if code == 0:
            assert rep["result"]["curve"] == cli._curve_json(curve), op.argv
    assert len(ops) >= 16 and raised < len(ops) and checked >= 5 * len(ops)


def test_a_far_operands_curve_is_exact():
    # a curve and its tails read no float, so no operand is too far for them
    h1 = bset(Finite((Q(0), Q(10) ** 250)))
    h2 = bset(Finite((Q(3), Q(4), Q(5))))
    c = defect_curve(h1, h2, MeanKind.ARITH)
    beta = Q(3 - 2, 2 * (2 + 3))
    alpha = beta * (4 - Q(10) ** 250 / 2)
    assert c.trend is Trend.LINEAR_GROWTH
    assert (c.right.threshold, c.left.threshold) == (Q(10) ** 250 - 3, Q(-5))
    for tail in (c.right, c.left):
        assert (tail.alpha, tail.beta) == (MeanValue.exact(alpha), MeanValue.exact(beta))
    x = Q(10) ** 400
    assert weight_defect(h1, h2, MeanKind.ARITH, x) == MeanValue.exact(alpha + beta * x)


@pytest.mark.parametrize("kind, text1, text2", [
    (MeanKind.ISO, "seq(0,1,1/2)", "seq(0,1,1/3) U seq(2,1,1/5)"),
    (MeanKind.ACC, "seq(0,1,1/2)", "seq(0,1,1/3) U seq(2,1,1/5)"),
    (MeanKind.AVG, "cantor(0,1,2,1/3)", "cantor(0,2,4,1/9)"),
])
@pytest.mark.parametrize("xmax", [0, 3])
def test_a_curve_reads_the_operands_once(monkeypatch, kind, text1, text2, xmax):
    import setmeans.weigh as weigh

    h1, h2 = normalize(parse(text1)), normalize(parse(text2))
    events = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            events.append((name, {id(h1): "h1", id(h2): "h2"}.get(id(args[0]))))
            return f(*args, **kwargs)
        monkeypatch.setattr(weigh, f.__name__, wrapper)

    for name, f in (("mean", weigh.mean_of), ("weight", weigh.weight_of),
                    ("order", weigh.compare_orders), ("translate", weigh.translate_set),
                    ("union", weigh.union_sets)):
        counted(name, f)
    defect_curve(h1, h2, kind)
    # the trend and beta come from the Weights; the means only give alpha
    reads = [("weight", "h1"), ("weight", "h2"), ("order", None), ("mean", "h1"), ("mean", "h2")]
    assert events == reads
    # the CLI's verdict and curve read each once between them
    events.clear()
    weigh.weigh_pair(h1, h2, kind, WeightKind.IN_BOUND)
    assert sorted(events, key=str) == sorted(reads, key=str)

    # the defect at one translate is the definition wherever the hulls lie
    # (apart at +diam, touching at -diam): one translate of H2, one union,
    # the three means, and no Weight or order
    xs = translate_grid(xmax, h1, h2)
    assert separates(h1, h2, xs[0]) and not separates(h1, h2, xs[xmax + 1])
    for x in xs:
        events.clear()
        weight_defect(h1, h2, kind, x)
        assert events == [("translate", "h2"), ("union", "h1"), ("mean", None),
                          ("mean", "h1"), ("mean", None)], x


@pytest.mark.parametrize("mean, h1, h2", [
    # one family, irrational weights that differ: beta is enclosed
    pytest.param("avg", "cantor(0,1,2,1/3)", "cantor(0,2,4,1/9)", id="avg-differ"),
    # the 10**1300 pair: the comparison spends the separation budget
    pytest.param("avg", "cantor(0,1,2,1/3)", f"cantor(5,{6 * 10**1300 + 1}/{10**1300},2,1/3)",
                 id="avg-inseparable"),
    # two classes of count terms against one
    pytest.param("iso", "seq(0,1,1/2) U seq(1,1,1/3)", "seq(0,1,1/5)", id="iso-differ"),
    # equal counts
    pytest.param("iso", "seq(0,1,1/2)", "seq(5,1,1/2)", id="iso-equal"),
])
def test_a_weigh_compares_the_weights_once(monkeypatch, mean, h1, h2):
    # the verdict, the trend and beta come from one comparison of the
    # Weights and one build of their joint class sums
    import setmeans.means as means
    import setmeans.weigh as weigh

    comparisons, builds = [], []
    compare, joint = means.Weight.compare_magnitude, means._joint_sums

    def compared(self, other, sums=None):
        comparisons.append(sums)
        return compare(self, other, sums)

    def built(*args):
        builds.append(args)
        return joint(*args)

    monkeypatch.setattr(means.Weight, "compare_magnitude", compared)
    monkeypatch.setattr(means, "_joint_sums", built)
    monkeypatch.setattr(weigh, "_joint_sums", built)
    for kind in WeightKind:
        comparisons.clear(), builds.clear()
        code, rep = cli.run_command(["weigh", "--mean", mean, "--kind", kind.value, h1, h2])
        assert code == 0, rep["diagnostics"]
        assert len(comparisons) <= 1 and len(builds) <= 1, kind
    assert comparisons and builds
