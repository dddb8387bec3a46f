"""One Weight per set: its domain, and the per-kind code it replaced as an oracle."""

from fractions import Fraction as Q

import pytest

from setmeans import CutNotRepresentable, DomainViolation, MeanKind, MeanValue, cut_set
from setmeans import gen_corpus, mean_of, normalize, parse
from setmeans.blocks import Finite
from setmeans.classify import Answer, Method, Verdict, _closed
from setmeans.laws import PROFILES
from setmeans.means import (
    DEFAULT_CONFIG,
    INFINITE_LEVEL,
    _compare_sums,
    _count_weights,
    _iv_weight,
    _weight_ratio,
    _weighted_mean,
    arith_mean,
    block_dim,
    compare_dims,
    dimension_of,
    iso_growth,
    top_level,
    weight_of,
)
from setmeans.weigh import _Pair


@pytest.mark.parametrize("kind, expr, reason", [
    (MeanKind.ARITH, "[0,1] U {5}", "infinite set"),
    (MeanKind.ACC, "[0,1] U {5}", "infinite level"),
    (MeanKind.AVG, "seq(0,1,1/2) U {5}", "not an s-set: infinitely many points at dimension 0"),
    (MeanKind.ISO, "[0,1] U {5}", "set has interval or cantor parts; isolated points are not dense"),
])
def test_a_weight_outside_the_domain_raises(kind, expr, reason):
    # the reason is the one the mean reports as undefined, whichever is asked first
    for mean_first in (False, True):
        h = normalize(parse(expr))
        if mean_first:
            assert mean_of(h, kind) == MeanValue.undefined(reason)
        for _ in range(2):
            with pytest.raises(DomainViolation) as exc:
                weight_of(h, kind)
            assert str(exc.value) == reason
        assert mean_of(h, kind) == MeanValue.undefined(reason)


def test_avg_weights_outside_the_domain_are_not_equal():
    # two sets with infinitely many points at dimension 0 have no measure to
    # compare; they must not read as "None vs None: equal"
    h1, h2 = (normalize(parse(e)) for e in ("seq(0,1,1/2) U {5}", "seq(3,1,1/2) U {7}"))
    with pytest.raises(DomainViolation):
        _Pair(h1, h2, MeanKind.AVG, DEFAULT_CONFIG).weight_verdict()


def test_lis_has_no_weight():
    # lis decides equal weight from accumulation bounds; asking it for a
    # Weight is a caller's error, not a set outside the domain, so it is not
    # kept with the set as a domain reason is: the second ask raises too
    h = normalize(parse("seq(0,1,1/2)"))
    for _ in range(2):
        with pytest.raises(ValueError, match="^lis has no weight: it compares accumulation bounds$") as exc:
            weight_of(h, MeanKind.LIS)
        assert type(exc.value) is ValueError


# ---------------------------------------------------------------------------
# the per-kind weights, means and comparisons that Weight replaced, kept as
# written as the reference


def _max_dim_blocks(h, dim):
    out = []
    for b in h.blocks:
        if compare_dims(block_dim(b), dim) == 0:
            out.append(b)
    return out


def measure_weight(h, dim):
    at_max = _max_dim_blocks(h, dim)
    if dim.kind == "zero":
        total = 0
        for b in at_max:
            if isinstance(b, Finite):
                total += len(b.points)
            else:
                return ("infinite", None)
        return ("exact", Q(total))
    if dim.kind == "one":
        return ("exact", sum((b.hi - b.lo for b in at_max), Q(0)))
    terms = tuple(sorted((b.hi - b.lo, b.pieces, 1 / b.ratio) for b in at_max))
    return ("terms", terms)


def reference_weight(h, kind):
    if kind is MeanKind.ARITH:
        return len(h.finite_points())
    if kind is MeanKind.ACC:
        lvl, top = top_level(h)
        return lvl, len(top.finite_points())
    if kind is MeanKind.AVG:
        dim = dimension_of(h)
        return dim, measure_weight(h, dim)
    return iso_growth(h)


def reference_compare_weights(w1, w2, kind):
    if kind is MeanKind.ARITH:
        what, differ = f"point counts {w1} vs {w2}", w1 != w2
    elif kind is MeanKind.ACC:
        (l1, c1), (l2, c2) = w1, w2
        what, differ = f"levels {l1} vs {l2}, top-level counts {c1} vs {c2}", w1 != w2
    elif kind is MeanKind.AVG:
        (d1, (how, m1)), (d2, (_, m2)) = w1, w2
        if compare_dims(d1, d2):
            what, differ = "Hausdorff dimensions", True
        elif how == "terms":
            what = "Cantor weights at the shared dimension"
            differ = _compare_sums(m1, m2, _weight_ratio, _iv_weight)
        else:
            what, differ = f"measures {m1} vs {m2} at the shared dimension", m1 != m2
    else:  # iso
        (d1, t1), (d2, t2) = w1, w2
        if d1 != d2:
            what, differ = f"count degrees {d1} vs {d2}", True
        else:
            what = f"leading count coefficients at degree {d1}"
            differ = _compare_sums([(c, r) for _, c, r in t1], [(c, r) for _, c, r in t2],
                                   *_count_weights(d1))
    if differ is None:
        return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER, (f"{what}: numerically inseparable",))
    return _closed(Answer.NO if differ else Answer.YES,
                   f"{what}: {'differ' if differ else 'equal'}")


def reference_mean(h, kind, cfg=DEFAULT_CONFIG):
    if kind is MeanKind.ARITH:
        if not h.is_finite:
            return MeanValue.undefined("infinite set")
        return MeanValue.exact(arith_mean(h.finite_points()))
    if kind is MeanKind.ACC:
        lev, top = top_level(h)
        if lev == INFINITE_LEVEL:
            return MeanValue.undefined("infinite level")
        return MeanValue.exact(arith_mean(top.finite_points()))
    if kind is MeanKind.ISO:
        try:
            degree, terms = iso_growth(h)
        except DomainViolation as exc:
            return MeanValue.undefined(str(exc))
        return _weighted_mean((((c, r), a) for a, c, r in terms), *_count_weights(degree), cfg.tol)
    dim = dimension_of(h)
    at_max = _max_dim_blocks(h, dim)
    if dim.kind == "zero":
        if any(not isinstance(b, Finite) for b in at_max):
            return MeanValue.undefined("not an s-set: infinitely many points at dimension 0")
        return MeanValue.exact(arith_mean(h.finite_points()))
    if dim.kind == "one":
        total = sum((b.hi - b.lo for b in at_max), Q(0))
        weighted = sum((b.hi - b.lo) * (b.lo + b.hi) / 2 for b in at_max)
        return MeanValue.exact(weighted / total)
    items = [((b.hi - b.lo, b.pieces, 1 / b.ratio), (b.lo + b.hi) / 2) for b in at_max]
    return _weighted_mean(items, _weight_ratio, _iv_weight, cfg.tol)


def same_verdict(h1, h2, kind):
    want = reference_compare_weights(reference_weight(h1, kind), reference_weight(h2, kind), kind)
    got = _Pair(h1, h2, kind, DEFAULT_CONFIG).weight_verdict()
    assert (got.answer, got.method, got.evidence) == (want.answer, want.method, want.evidence), \
        (h1, h2, kind)
    return got.answer


@pytest.mark.parametrize("kind", [MeanKind.ARITH, MeanKind.ACC, MeanKind.AVG, MeanKind.ISO])
def test_weights_match_the_per_kind_reference(kind):
    answers, halves = set(), 0
    for profile in PROFILES:
        hs = [normalize(e) for e in gen_corpus(7, 25, profile)]
        inside = []
        for h in hs:
            k = mean_of(h, kind)
            assert k == reference_mean(h, kind), (h, kind)
            if not k.is_defined:
                continue
            inside.append(h)
            kq = k.value if k.is_exact else Q(k.approx)
            try:
                low, high = cut_set(h, kq, keep_low=True), cut_set(h, kq, keep_low=False)
            except CutNotRepresentable:
                continue
            if all(not x.is_empty and mean_of(x, kind).is_defined for x in (low, high)):
                answers.add(same_verdict(low, high, kind))
                halves += 1
        for h1, h2 in zip(inside, inside[1:]):
            answers.add(same_verdict(h1, h2, kind))
    assert Answer.YES in answers and Answer.NO in answers
    assert halves > 10


@pytest.mark.parametrize("a, b, want", [
    ((Q(3), 2, Q(3)), (Q(1), 2, Q(3)), Q(2)),  # one family: 3 = 3**1, 2**1
    ((Q(3), 2, Q(3)), (Q(1), 4, Q(9)), Q(2)),  # across families: 3 = 9**(1/2), 4**(1/2)
    ((Q(1), 4, Q(9)), (Q(3), 2, Q(3)), Q(1, 2)),  # 1/3 = 3**-1, 2**-1
    ((Q(4), 2, Q(4)), (Q(1), 2, Q(4)), Q(2)),  # s = 1/2 is rational: 4**(1/2)
    ((Q(3), 2, Q(9)), (Q(1), 2, Q(9)), None),  # 3 = 9**(1/2), but 2**(1/2) is irrational
    ((Q(2), 2, Q(3)), (Q(1), 2, Q(3)), None),  # 2 is no rational power of 3
])
def test_cantor_weight_ratios_read_across_families(a, b, want):
    assert _weight_ratio(a, b) == want


@pytest.mark.parametrize("expr, want", [
    ("{1,2}", "2"),
    ("seq(0,1,1/2)", "1·(1/ln 2)^1"),
    ("seq(0,1,1/2) U seq(1,1,1/3)", "1·(1/ln 2)^1 + 1·(1/ln 3)^1"),
    ("tower(2,0,1/4)", "1·(1/ln 4)^2"),
], ids=["finite", "seq", "two-seqs", "tower"])
def test_an_iso_weight_prints_its_terms(expr, want):
    assert str(weight_of(normalize(parse(expr)), MeanKind.ISO)) == want


def test_every_corpus_weight_prints():
    # lis has no weight; a set outside a mean's domain has none under it
    printed = set()
    for profile in PROFILES:
        for e in gen_corpus(7, 20, profile):
            h = normalize(e)
            for kind in (MeanKind.ARITH, MeanKind.ACC, MeanKind.AVG, MeanKind.ISO):
                try:
                    w = weight_of(h, kind)
                except DomainViolation:
                    continue
                assert str(w), (kind, e)
                printed.add(kind)
    assert len(printed) == 4
