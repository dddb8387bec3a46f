"""Normalization, derived sets, levels, isolation, cuts, intersection."""

import random
from fractions import Fraction as Q

import pytest

from setmeans import (
    BlockSet,
    Cantor,
    CutAbove,
    CutBelow,
    EmptyResult,
    Finite,
    GeomSeq,
    Interval,
    IntersectionNotRepresentable,
    Leaf,
    Tower,
    Translate,
    Union,
    bounds,
    contains,
    cut_set,
    derived_set,
    gen_corpus,
    intersect,
    isolated_outside,
    level,
    normalize,
    normalize_blocks,
    translate_set,
    union_sets,
)
from setmeans.sets import INFINITE_LEVEL


def bset(*blocks) -> BlockSet:
    return normalize_blocks(list(blocks))


def leaf_union(*blocks):
    return Union(tuple(Leaf(b) for b in blocks))


def test_normalize_translation_distributes():
    e = Translate(leaf_union(Finite((Q(1), Q(2))), Finite((Q(5),))), Q(3))
    out = normalize(e)
    assert out == bset(Finite((Q(4), Q(5), Q(8))))


def test_normalize_cut_below_geomseq():
    # the at-or-below part of a geometric sequence is its tail
    e = CutBelow(Leaf(GeomSeq(Q(0), Q(1), Q(1, 2))), Q(1, 8))
    assert normalize(e) == bset(GeomSeq(Q(0), Q(1, 4), Q(1, 2)))
    e = CutAbove(Leaf(GeomSeq(Q(0), Q(1), Q(1, 2))), Q(1, 8))
    assert normalize(e) == bset(Finite((Q(1, 8), Q(1, 4), Q(1, 2))))


def test_normalize_cut_interval():
    e = CutAbove(Leaf(Interval(Q(0), Q(2))), Q(1))
    assert normalize(e) == bset(Interval(Q(1), Q(2)))


def test_normalize_empty_raises():
    with pytest.raises(EmptyResult):
        normalize(CutBelow(Leaf(Interval(Q(0), Q(1))), Q(-1)))


def test_normalize_merges_intervals_and_absorbs():
    out = bset(Interval(Q(0), Q(1)), Interval(Q(1), Q(2)), Interval(Q(5), Q(6)))
    assert out.blocks == (Interval(Q(0), Q(2)), Interval(Q(5), Q(6)))
    # finite points and whole blocks inside an interval disappear into it
    out = bset(Interval(Q(0), Q(1)), Finite((Q(1, 2), Q(3))),
               GeomSeq(Q(1, 4), Q(1, 4), Q(1, 2)))
    assert out.blocks == (Finite((Q(3),)), Interval(Q(0), Q(1)))


def test_normalize_dedupes_finite_against_blocks():
    out = bset(GeomSeq(Q(0), Q(1), Q(1, 2)), Finite((Q(1, 4), Q(7))))
    assert out.finite_points() == (Q(7),)


def test_normalize_absorbs_subsequences():
    # same anchor, power-related ratio and scale: one sequence swallows the other
    a = GeomSeq(Q(0), Q(1), Q(1, 2))
    tail = GeomSeq(Q(0), Q(1, 4), Q(1, 2))
    squares = GeomSeq(Q(0), Q(1), Q(1, 4))
    assert bset(a, tail).blocks == (a,)
    assert bset(a, squares).blocks == (a,)
    assert len(bset(a, GeomSeq(Q(0), Q(1), Q(1, 3))).blocks) == 2


def test_normalize_tower_level_one_is_a_sequence():
    out = bset(Tower(1, Q(0), Q(1), Q(1, 4)))
    assert out.blocks == (GeomSeq(Q(0), Q(1), Q(1, 4)),)
    # one layer takes any ratio below 1, as the sequence does
    out = bset(Tower(1, Q(0), Q(1), Q(1, 2)))
    assert out.blocks == (GeomSeq(Q(0), Q(1), Q(1, 2)),)


def test_normalize_idempotent_on_corpus():
    for e in gen_corpus(17, 120, "mixed"):
        once = normalize(e)
        again = normalize_blocks(once.blocks)
        assert once == again


def test_translation_equivariance_on_corpus():
    for i, e in enumerate(gen_corpus(23, 60, "mixed")):
        x = Q(i - 30, 7)
        assert normalize(Translate(e, x)) == translate_set(normalize(e), x)


def test_derived_set_rules():
    assert derived_set(bset(Finite((Q(1), Q(2), Q(3))))).is_empty
    assert derived_set(bset(GeomSeq(Q(0), Q(1), Q(1, 2)))) == bset(Finite((Q(0),)))
    d = derived_set(bset(Tower(2, Q(0), Q(1), Q(1, 4))))
    # the anchor is a limit of the first layer, so it joins the lower tower
    assert d == bset(GeomSeq(Q(0), Q(1), Q(1, 4)), Finite((Q(0),)))
    iv = bset(Interval(Q(0), Q(1)))
    assert derived_set(iv) == iv
    c = bset(Cantor(Q(0), Q(1), 2, Q(1, 3)))
    assert derived_set(c) == c


def test_tower_derived_set_enumeration_oracle():
    # every claimed accumulation point of the level-2 tower is approached
    # by tower points within every small radius, and conversely no point
    # far from the claimed set has tower points arbitrarily close
    r = Q(1, 4)
    h = bset(Tower(2, Q(0), Q(1), r))
    claimed = derived_set(h)
    targets = [Q(0)] + [r**n for n in range(1, 6)]
    for q in targets:
        assert contains(claimed, q) or q == 0  # 0 sits in the Finite part
        for eps in (Q(1, 64), Q(1, 1024), Q(1, 2**16)):
            # a sum q + r**m lands within eps of q once m passes q's index
            m = 1
            while r**m >= eps or (q != 0 and r**m >= q):
                m += 1
            probe = q + r**m if q != 0 else r**m
            assert contains(h, probe)
            assert abs(probe - q) < eps
    # a gap point keeps its distance from the tower
    from setmeans.blocks import block_min_dist

    gap_point = Q(1, 4) + Q(1, 4) ** 2 + Q(1, 30)
    assert block_min_dist(h.blocks[0], gap_point) > Q(1, 200)
    assert not contains(claimed, gap_point)


def test_levels():
    assert level(bset(Finite((Q(1), Q(2))))) == 0
    assert level(bset(GeomSeq(Q(0), Q(1), Q(1, 2)))) == 1
    assert level(bset(Tower(2, Q(0), Q(1), Q(1, 4)), GeomSeq(Q(5), Q(1), Q(1, 2)))) == 2
    assert level(bset(Tower(3, Q(0), Q(1), Q(1, 5)))) == 3
    assert level(bset(Interval(Q(0), Q(1)))) == INFINITE_LEVEL
    assert level(bset(Cantor(Q(0), Q(1), 2, Q(1, 3)))) == INFINITE_LEVEL


def test_derived_strictly_reduces_level_on_corpus():
    for e in gen_corpus(31, 80, "mixed"):
        h = normalize(e)
        lev = level(h)
        if lev == INFINITE_LEVEL or lev < 1:
            continue
        assert level(derived_set(h)) == lev - 1


def test_bounds():
    bd = bounds(bset(GeomSeq(Q(0), Q(1), Q(1, 2))))
    assert (bd.inf, bd.sup, bd.acc_inf, bd.acc_sup) == (Q(0), Q(1, 2), Q(0), Q(0))
    bd = bounds(bset(GeomSeq(Q(0), Q(1), Q(1, 2)), Interval(Q(2), Q(3))))
    assert (bd.inf, bd.sup, bd.acc_inf, bd.acc_sup) == (Q(0), Q(3), Q(0), Q(3))
    bd = bounds(bset(Finite((Q(4),))))
    assert (bd.inf, bd.sup, bd.acc_inf, bd.acc_sup) == (Q(4), Q(4), None, None)


def test_isolated_outside_examples():
    h = bset(GeomSeq(Q(0), Q(1), Q(1, 2)))
    assert isolated_outside(h, Q(1, 8)) == [Q(1, 8), Q(1, 4), Q(1, 2)]
    assert isolated_outside(bset(Interval(Q(0), Q(1))), Q(1, 10)) == []
    h = bset(GeomSeq(Q(0), Q(1), Q(1, 2)), Finite((Q(5),)))
    assert isolated_outside(h, Q(1, 4)) == [Q(1, 4), Q(1, 2), Q(5)]


def test_isolated_outside_is_antitone_and_far_from_acc():
    from setmeans.blocks import block_dist_at_least

    for e in gen_corpus(41, 40, "mixed"):
        h = normalize(e)
        acc = derived_set(h)
        big = isolated_outside(h, Q(1, 3))
        small = isolated_outside(h, Q(1, 17))
        assert set(big) <= set(small)
        for x in big:
            assert all(block_dist_at_least(b, x, Q(1, 3)) for b in acc.blocks)


def test_cut_partition_denotes_original():
    rng = random.Random(5)
    probes = [Q(n, 16) for n in range(-160, 161)]
    for e in gen_corpus(53, 40, "mixed"):
        h = normalize(e)
        y = Q(rng.randint(-60, 60), 8)
        low = cut_set(h, y, keep_low=True)
        high = cut_set(h, y, keep_low=False)
        back = union_sets(low, high)
        for x in probes:
            assert contains(back, x) == contains(h, x)
        inter = intersect(low, high)
        assert set(inter.finite_points()) <= {y}
        assert all(isinstance(b, Finite) for b in inter.blocks)


def test_intersect_examples():
    a = bset(Finite((Q(1), Q(2))))
    b = bset(Finite((Q(1, 2), Q(1), Q(3))))
    assert intersect(a, b) == bset(Finite((Q(1),)))
    assert intersect(bset(Interval(Q(0), Q(2))), bset(Interval(Q(1), Q(5)))) == bset(
        Interval(Q(1), Q(2))
    )
    assert intersect(
        bset(GeomSeq(Q(0), Q(1), Q(1, 2))), bset(Interval(Q(10), Q(11)))
    ).is_empty


def test_intersect_geomseq_cases():
    s2 = bset(GeomSeq(Q(0), Q(1), Q(1, 2)))
    s3 = bset(GeomSeq(Q(0), Q(1), Q(1, 3)))
    # 2^-n = 3^-m has no solutions: anchors equal, mult. independent ratios
    with pytest.raises(IntersectionNotRepresentable):
        intersect(s2, s3)
    s4 = bset(GeomSeq(Q(0), Q(1), Q(1, 4)))
    assert intersect(s2, s4) == s4  # the 4^-n points are a subsequence
    shifted = bset(GeomSeq(Q(1, 4), Q(1), Q(1, 2)))
    got = intersect(s2, shifted)
    # points of the shifted copy above its own anchor: 1/4 + 2^-n
    assert got == bset(Finite((Q(1, 2),)))


def test_intersect_interval_clips_sequence():
    s = bset(GeomSeq(Q(0), Q(1), Q(1, 2)))
    got = intersect(s, bset(Interval(Q(1, 8), Q(1, 3))))
    assert got == bset(Finite((Q(1, 8), Q(1, 4))))


def test_intersect_cantor_undecidable():
    c1 = bset(Cantor(Q(0), Q(1), 2, Q(1, 3)))
    c2 = bset(Cantor(Q(0), Q(1), 2, Q(1, 4)))
    with pytest.raises(IntersectionNotRepresentable):
        intersect(c1, c2)
    assert intersect(c1, c1) == c1


def test_contains_across_blocks():
    h = bset(GeomSeq(Q(0), Q(1), Q(1, 2)), Interval(Q(2), Q(3)))
    assert contains(h, Q(1, 16))
    assert contains(h, Q(5, 2))
    assert not contains(h, Q(7, 4))
