"""The five means: anchor values, domains, invariants, mean-relative bounds."""

import math
from fractions import Fraction as Q
from functools import partial

import pytest
from hypothesis import assume, example, given, strategies as st
from mpmath import iv, mp, mpf

import setmeans
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
    ValidationError,
    arith_mean,
    bounds,
    derived_set,
    gen_corpus,
    k_bounds,
    mean_of,
    normalize,
    normalize_blocks,
    parse,
    translate_set,
    union_sets,
)
from setmeans.blocks import _log_ratio
from setmeans.means import (
    DIM_ONE,
    DIM_ZERO,
    DimValue,
    MeanValue,
    _count_weights,
    _iv_count_weight,
    _iv_log,
    _iv_q,
    _iv_weight,
    _mean_of_sums,
    compare_dims,
    mean_iso,
    order,
)
from setmeans.weigh import defect_curve


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
    assert (v.status, v.value) == ("exact", a)


def test_iso_two_anchors():
    v = mean_of(bset(seq(0), seq(1)), MeanKind.ISO)
    assert (v.status, v.value) == ("exact", Q(1, 2))


def test_iso_mean_of_incommensurable_ratios():
    # weights 1/ln 3 and 1/ln 4 have an irrational ratio: the mean is enclosed
    v = mean_of(normalize(parse("seq(-5,2,1/3) U seq(-15/4,-1,1/4)")), MeanKind.ISO)
    w3, w4 = 1 / math.log(3), 1 / math.log(4)
    want = (-5 * w3 - 3.75 * w4) / (w3 + w4)
    assert round(want, 6) == -4.447357
    assert v.status == "approx" and abs(v.approx - want) <= 2 * v.tol


@pytest.mark.parametrize("degree", [1, 2])
def test_iso_growth_of_coprime_progressions_is_a_product(monkeypatch, degree):
    # ratios 2**-p for the first 16 primes p: at anchor 0 the top points have
    # exponents in the progressions {p*k}, whose steps are pairwise coprime,
    # so the shared points are counted by 1 - prod(1 - 1/p**d) and not by a
    # 2**16-term inclusion-exclusion
    from setmeans import means

    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    block = "seq(0,1,1/{})" if degree == 1 else "tower(2,0,1/{})"
    h = normalize(parse(" U ".join(block.format(2**p) for p in primes) + " U seq(1,1,1/2)"))
    calls = []
    walk = means._progressions_union
    monkeypatch.setattr(means, "_progressions_union", lambda *a: calls.append(a) or walk(*a))
    d, terms = means.iso_growth(h)
    c, r0 = next((c, r) for a, c, r in terms if a == 0)
    # the term counts in exponent units of 1/2: r0 = 2**-n and c = n**d * union
    n = r0.denominator.bit_length() - 1
    assert r0 == Q(1, 2**n) and d == degree
    assert c == n**degree * (1 - math.prod(1 - Q(1, p**degree) for p in primes))
    assert len(calls) == len(terms)


@pytest.mark.parametrize("degree", [1, 2])
def test_progressions_with_shared_factors_sum_in_closed_form(monkeypatch, degree):
    # steps 2p for the first 15 odd primes p, plus 3, all at residue 0: every
    # subfamily agrees, so the union is the signed sum over all 2**16
    # subfamilies of 1/lcm**d; it is checked against that sum, with the
    # subfamilies merged by lcm, and must take a few dozen steps, not 2**16
    from collections import Counter

    from setmeans import means

    steps = [2 * p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)] + [3]
    signed = Counter({1: 1})  # lcm -> signed count of the subfamilies with it
    for s in steps:
        for m, c in list(signed.items()):
            signed[math.lcm(m, s)] -= c
    want = 1 - sum(Q(c, m**degree) for m, c in signed.items())
    calls = []
    real = means._lcm_sum
    monkeypatch.setattr(means, "_lcm_sum", lambda *a: calls.append(a) or real(*a))
    got = means._progressions_union([(0, s) for s in steps], degree)
    assert type(got) is setmeans.Q and got == want
    assert len(calls) <= 4 * len(steps)


def test_enclosure_doubles_its_precision_for_a_small_tol():
    # 64 bits enclose the mean to about 1e-19: 1e-300 takes the ladder up
    h = normalize(parse("seq(0,1,1/2) U seq(1,1,1/3)"))
    coarse = mean_of(h, MeanKind.ISO)
    fine = mean_of(h, MeanKind.ISO, LadderConfig(tol=1e-300))
    assert (fine.status, fine.tol) == ("approx", 1e-300)
    assert abs(fine.approx - coarse.approx) <= 1e-9
    with mp.workdps(60):
        assert fine.approx == float(mp.log(2) / mp.log(6))


def test_enclosure_past_the_ladder_is_a_validation_error():
    # near 10**1000 the enclosure at 4096 bits is about 1e-233 wide, not 5e-324
    h = translate_set(normalize(parse("seq(0,1,1/2) U seq(1,1,1/3)")), Q(10) ** 1000)
    with pytest.raises(ValidationError, match=r"tol 5e-324: 4096 bits spent"):
        mean_of(h, MeanKind.ISO, LadderConfig(tol=5e-324))


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
        assert v.is_exact and vs.value == v.value + Q(7, 3)


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


def test_k_bounds_examples():
    h = bset(seq(0), seq(1), seq(2), seq(3))
    kb = k_bounds(h, MeanKind.LIS)
    assert kb.k_liminf.value == 0
    assert kb.k_limsup.value == 3
    kb = k_bounds(bset(Interval(Q(0), Q(1))), MeanKind.AVG)
    assert (kb.k_liminf.value, kb.k_limsup.value) == (0, 1)
    kb = k_bounds(bset(Finite((Q(0), Q(10)))), MeanKind.ARITH)
    assert (kb.k_liminf.value, kb.k_limsup.value) == (0, 10)


def test_cut_candidates_hold_the_ends_of_every_derived_set():
    # the k-bounds oracle's cut candidates: 67 derived sets, from level 66
    # down to the anchor alone
    from test_oracles import reference_cut_candidates

    h = normalize(parse("tower(66,0,1/4)"))
    cands = set(reference_cut_candidates(h))
    cur, walked = h, 0
    while not cur.is_empty:
        assert all(b.inf in cands and b.sup in cands for b in cur.blocks), walked
        cur, walked = derived_set(cur), walked + 1
    assert walked == 67


@pytest.mark.parametrize("text,kind", [
    ("{0, 10}", MeanKind.ARITH),
    ("seq(0,1,1/2) U seq(1,1,1/3) U {5}", MeanKind.ISO),
    ("tower(2,0,1/4) U seq(5,1,1/2)", MeanKind.ACC),
])
def test_k_bounds_builds_no_cut_and_evaluates_no_mean(monkeypatch, text, kind):
    # the bounds are read from h's top-order parts and its domain from its
    # Weight: no cut is built and no mean is evaluated
    from setmeans import blocks, means, sets

    h = normalize(parse(text))
    cuts, evaluated = [], []
    for module in (blocks, sets, means):
        for name in ("cut_block", "cut_set"):
            monkeypatch.setattr(module, name, lambda *a: cuts.append(a), raising=False)
    mean = means._mean
    monkeypatch.setattr(means, "_mean", lambda g, *a: evaluated.append(g) or mean(g, *a))
    k_bounds(h, kind)
    assert cuts == [] and evaluated == []


def test_k_bounds_acc_tower():
    h = bset(Tower(2, Q(0), Q(1), Q(1, 4)), seq(5))
    kb = k_bounds(h, MeanKind.ACC)
    # any positive lower cut strips the tower's deep structure
    assert kb.k_liminf.value == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mean_acc_builds_no_derived_set(monkeypatch, k):
    from setmeans import means, sets

    calls = []
    real = sets.derived_set

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(sets, "derived_set", counted)
    monkeypatch.setattr(means, "derived_set", counted, raising=False)
    h = bset(Tower(k, Q(0), Q(1), Q(1, 4)))
    assert mean_of(h, MeanKind.ACC).value == 0
    # the level and the top derived set are read from the blocks
    assert calls == []


@given(p=st.integers(1, 60), q=st.integers(1, 60), i=st.integers(-40, 40),
       j=st.integers(-40, 40).filter(bool))
def test_log_ratio_of_powers(p, q, i, j):
    assume(p != q)
    b = Q(p, q)
    assert _log_ratio(b**i, b**j) == Q(i, j)


@given(p=st.integers(2, 200), q=st.integers(2, 200), i=st.integers(-20, 20).filter(bool),
       j=st.integers(-20, 20).filter(bool))
def test_log_ratio_of_coprime_bases_is_none(p, q, i, j):
    assume(math.gcd(p, q) == 1)
    assert _log_ratio(Q(p) ** i, Q(q) ** j) is None


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


# Reference comparisons: equal, at most and strictly below, each with its
# own rule for approximate values.  means.order is checked against them.


def values_close(a, b, tol):
    if not a.is_defined or not b.is_defined:
        return None
    if a.is_exact and b.is_exact:
        return a.value == b.value
    return abs(a.as_float() - b.as_float()) <= 2 * tol


def _le(a, b, tol):
    if not (a.is_defined and b.is_defined):
        return None
    if a.is_exact and b.is_exact:
        return a.value <= b.value
    return a.as_float() <= b.as_float() + 2 * tol


def _lt_strict(a, b):
    if a.is_exact and b.is_exact:
        return a.value < b.value
    return None


TOL = 1e-9


@pytest.mark.parametrize("dist", [0, TOL, 3 * TOL, 1.9 * TOL, 2.1 * TOL,
                                  -TOL, -3 * TOL, -1.9 * TOL, -2.1 * TOL])
def test_order_agrees_with_the_reference_comparisons(dist):
    # the distances stay clear of 2*TOL by more than float rounding, where
    # a - b <= 2*tol and a <= b + 2*tol could disagree
    def forms(x):
        return [MeanValue.exact(x), MeanValue.approximate(float(x), TOL),
                MeanValue.undefined("outside the domain")]

    base = Q(1, 3)
    pairs = [(a, b) for a in forms(base) for b in forms(base + Q(dist))]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        s = order(a, b, TOL)
        assert (None if s is None else s == 0) == values_close(a, b, TOL), (a, b)
        assert (None if s is None else s <= 0) == _le(a, b, TOL), (a, b)
        assert (s < 0 if a.is_exact and b.is_exact else None) == _lt_strict(a, b), (a, b)


# The oracle of the enclosure kernel: the same expressions in mpmath.iv,
# evaluated under its global iv.prec.


LADDER = (64, 128, 256, 512, 1024, 2048, 4096)


def at_iv_prec(bits, f):
    """f() evaluated with mpmath's global iv.prec set to bits; restored after."""
    saved = iv.prec
    try:
        iv.prec = bits
        return f()
    finally:
        iv.prec = saved


def iv_q_reference(q):
    return iv.mpf(q.numerator) / q.denominator


def iv_log_reference(q):
    return iv.log(iv.mpf(q.numerator)) - iv.log(iv.mpf(q.denominator))


def iv_weight_reference(term):
    d, m, invr = term
    return iv.exp(iv_log_reference(Q(m)) / iv_log_reference(invr) * iv_log_reference(d))


def iv_count_weight_reference(x, degree):
    return iv_q_reference(x[0]) / iv_log_reference(1 / x[1]) ** degree


ENCLOSURES = [
    (lambda bits: _iv_q(Q(-7, 3), bits), lambda: iv_q_reference(Q(-7, 3))),
    (lambda bits: _iv_log(Q(1, 3), bits), lambda: iv_log_reference(Q(1, 3))),
    (lambda bits: _iv_log(7, bits), lambda: iv_log_reference(Q(7))),
    (lambda bits: _iv_weight((Q(2, 9), 2, Q(3)), bits),
     lambda: iv.exp(iv_log_reference(Q(2)) / iv_log_reference(Q(3))
                    * iv_log_reference(Q(2, 9)))),
    (lambda bits: _iv_count_weight((Q(5, 2), Q(1, 3)), 2, bits),
     lambda: iv.mpf(5) / 2 / iv_log_reference(Q(3)) ** 2),
]


@pytest.mark.parametrize("kernel, fresh", ENCLOSURES,
                         ids=["rational", "log", "log-of-int", "cantor-weight", "count-weight"])
def test_kept_enclosures_are_the_fresh_ones_at_each_precision(kernel, fresh):
    # high precision first, so a key without the precision would hand the
    # 4096-bit interval to the 64-bit call; each is asked twice, once kept
    for bits in (4096,) + LADDER + LADDER[:2]:
        assert kernel(bits) == at_iv_prec(bits, fresh)._mpi_, bits


def test_a_high_precision_log_is_not_the_kept_low_one():
    _iv_log.cache_clear()
    _iv_log(Q(1, 3), 64)
    x = iv.make_mpf(_iv_log(Q(1, 3), 4096))
    assert x.delta.b < mpf(2) ** -4000


def reference_mean_of_sums(sums, enclose, tol):
    """_mean_of_sums as mpmath.iv computes it: a set of the class means,
    and the ladder under iv.prec, the width and midpoint read at 53 bits."""
    means = {num / den for _, den, num in sums}
    if len(means) == 1:
        return MeanValue.exact(means.pop())

    def enclosure():
        den = sum(enclose(first) * iv_q_reference(d) for first, d, _ in sums)
        return sum(enclose(first) * iv_q_reference(n) for first, _, n in sums) / den

    for bits in LADDER:
        x = at_iv_prec(bits, enclosure)
        if at_iv_prec(53, lambda: x.delta < tol):
            mid = at_iv_prec(53, lambda: float(x.mid))
            if not math.isfinite(mid):
                raise ValidationError("the mean is outside the float range: "
                                      f"its enclosure's midpoint reads {mid} as a float")
            return MeanValue.approximate(mid, tol)
    raise ValidationError(f"no enclosure within tol {tol}: {bits} bits spent, the budget")


# each class's first term is not commensurable with another's: ratios
# 1/2, 1/3, 1/5, 1/7 for counts; diameters 1, 2, 3, 5 at log 2 / log 3
FIRSTS = {
    "count": [(Q(1), Q(1, 2)), (Q(3, 2), Q(1, 3)), (Q(2), Q(1, 5)), (Q(5, 7), Q(1, 7))],
    "cantor": [(Q(1), 2, Q(3)), (Q(2), 2, Q(3)), (Q(3), 2, Q(3)), (Q(5), 2, Q(3))],
}
# past 10**308 a mean leaves the float range, and past about 10**910 its
# 4096-bit enclosure is wider than 5e-324
RATIONALS = st.builds(Q, st.one_of(st.integers(-10**6, 10**6), st.integers(-10**300, 10**300),
                                   st.integers(-10**1200, 10**1200)),
                      st.integers(1, 10**6))


@given(family=st.sampled_from(["count", "cantor"]), degree=st.integers(1, 3),
       classes=st.lists(st.tuples(RATIONALS.map(abs).filter(bool), RATIONALS),
                        min_size=2, max_size=4),
       same=st.booleans(), tol=st.sampled_from([1e-3, 1e-9, 1e-15, 1e-60, 1e-300, 5e-324]))
@example(family="count", degree=1, classes=[(Q(1), Q(10**1000)), (Q(3), -Q(10**1000))],
         same=False, tol=5e-324)  # the budget is spent
@example(family="count", degree=2, classes=[(Q(1), Q(10**400)), (Q(2), Q(10**400 + 1))],
         same=False, tol=1e-9)  # past the float range
@example(family="cantor", degree=1, classes=[(Q(1), Q(-1, 3)), (Q(2), Q(7))],
         same=False, tol=1e-300)
def test_mean_of_sums_is_the_iv_formula(family, degree, classes, same, tol):
    if family == "count":
        enclose, reference = _count_weights(degree)[1], partial(iv_count_weight_reference,
                                                                degree=degree)
    else:
        enclose, reference = _iv_weight, iv_weight_reference
    # same: every class has the first class's mean, so the mean is exact
    sums = [(first, den, den * classes[0][1] if same else num)
            for first, (den, num) in zip(FIRSTS[family], classes)]

    def outcome(f):
        try:
            return f()
        except ValidationError as exc:
            return str(exc)

    got = outcome(lambda: _mean_of_sums(sums, enclose, tol))
    want = outcome(lambda: reference_mean_of_sums(sums, reference, tol))
    assert got == want
    if isinstance(got, MeanValue) and got.status == "approx":
        assert got.approx.hex() == want.approx.hex()


PRECISION_QUERIES = [
    ["eval", "--mean", "iso", "seq(0,1,1/2) U seq(1,1,1/3)"],
    ["round", "--mean", "iso", "seq(0,-1,1/2) U seq(1/1000,1,1/3)"],
    ["weigh", "--mean", "iso", "--kind", "bound", "seq(0,1,1/2) U seq(1,1,1/3)", "seq(0,1,1/5)"],
    ["eval", "--mean", "avg", "cantor(0,1,2,1/3) U cantor(5,7,4,1/9)"],
    ["round", "--mean", "avg", "cantor(0,1,2,1/3) U cantor(5,7,4,1/9)"],
    ["weigh", "--mean", "avg", "--kind", "bound", "cantor(0,1,2,1/3)", "cantor(0,2,4,1/9)"],
]


@pytest.mark.parametrize("argv", PRECISION_QUERIES, ids=lambda a: f"{a[0]}-{a[2]}")
def test_reports_ignore_mpmath_global_precision(argv):
    from setmeans.cli import run_command

    # fresh caches, so no enclosure kept at the default precision is reused
    for f in (_iv_log, _iv_weight, _iv_count_weight):
        f.cache_clear()
    default = run_command(argv + ["--json"])
    assert default[0] == 0 and "approx" in str(default[1]["result"]), default
    saved = iv.prec
    try:
        for bits in (20, 300):
            iv.prec = bits
            for f in (_iv_log, _iv_weight, _iv_count_weight):
                f.cache_clear()
            assert run_command(argv + ["--json"]) == default, bits
            assert iv.prec == bits
    finally:
        iv.prec = saved


@pytest.mark.parametrize("kind, h1, h2", [
    (MeanKind.ISO, "seq(0,1,1/2) U seq(1,1,1/3)", "seq(0,1,1/5)"),
    (MeanKind.AVG, "cantor(0,1,2,1/3) U cantor(2,3,3,1/4)", "cantor(0,1,2,1/5)"),
])
def test_a_repeated_defect_curve_misses_no_kept_constant(kind, h1, h2):
    # fresh sets each time, so no mean is reused from a set's memo
    def curve():
        return defect_curve(normalize(parse(h1)), normalize(parse(h2)), kind)

    kept = (_log_ratio, _iv_log, _iv_weight, _iv_count_weight)
    first = curve()
    before = [f.cache_info() for f in kept]
    assert curve() == first
    after = [f.cache_info() for f in kept]
    assert [i.misses for i in after] == [i.misses for i in before]
    assert sum(i.hits for i in after) > sum(i.hits for i in before)
