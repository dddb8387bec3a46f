"""Normalization, derived sets, levels, isolation, cuts, intersection."""

import random
import re
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from setmeans import (
    Answer,
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
    MeanKind,
    Tower,
    Translate,
    Union,
    arith_mean,
    bounds,
    build_iso_witness_staged,
    contains,
    cut_set,
    derived_set,
    gen_corpus,
    intersect,
    is_small_for,
    isolated_outside,
    level,
    mean_of,
    normalize,
    normalize_blocks,
    parse,
    render,
    translate_set,
    union_sets,
)
from setmeans import sets
from setmeans.blocks import block_contains, block_sort_key, power_block
from setmeans.errors import CutNotRepresentable, MembershipUndecided
from setmeans.laws import PROFILES, _shifts
from setmeans.means import dimension_of
from setmeans.sets import INFINITE_LEVEL, _geom_absorbs, disjoint, disjoint_union, isolated_count


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
    e = CutBelow(Leaf(Interval(Q(0), Q(1))), Q(-1))
    for _ in range(3):  # a call that raises keeps nothing for the next
        with pytest.raises(EmptyResult):
            normalize(e)


@pytest.mark.parametrize("read", [
    lambda h: mean_of(h, MeanKind.ARITH),
    dimension_of,
    level,
    bounds,
    lambda h: build_iso_witness_staged(h, "small", 4),
], ids=["mean_of", "dimension_of", "level", "bounds", "build_iso_witness_staged"])
def test_the_empty_set_has_no_mean_dimension_level_bounds_or_witness(read):
    with pytest.raises(EmptyResult):
        read(sets.EMPTY)


def test_the_mean_of_nothing_raises_and_the_empty_set_is_small():
    with pytest.raises(EmptyResult):
        arith_mean([])
    verdict = is_small_for(sets.EMPTY, normalize(parse("{1, 2}")), MeanKind.ARITH)
    assert verdict.answer is Answer.YES


def test_normalize_cut_at_a_cantor_non_gap_point_raises_on_every_call():
    e = CutBelow(Leaf(Cantor(Q(0), Q(1), 2, Q(1, 3))), Q(1, 4))
    for _ in range(3):
        with pytest.raises(CutNotRepresentable):
            normalize(e)


def test_normalize_rejects_what_is_not_an_expression():
    with pytest.raises(TypeError, match="^not a SetExpr: 42$"):
        normalize(42)


def test_normalize_keeps_the_blocks_not_the_set():
    e = Union((Leaf(GeomSeq(Q(0), Q(1), Q(1, 2))), Translate(Leaf(Interval(Q(0), Q(1))), Q(3))))
    first, again = normalize(e), normalize(e)
    assert first == again and first.blocks is again.blocks
    # a fresh set each time: what one caller derives is not kept for the next
    assert first is not again
    derived_set(first)
    assert again._derived == {}


def test_normalize_leaves_the_expression_as_it_was():
    for e in gen_corpus(29, 40, "mixed"):
        fresh = parse(render(e))
        assert fresh == e
        seen = (hash(fresh), repr(fresh), render(fresh))
        normalize(fresh)
        assert fresh == e and (hash(fresh), repr(fresh), render(fresh)) == seen


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


def assert_canonical(h: BlockSet):
    """The invariants that the BlockSet docstring states."""
    finite = [b for b in h.blocks if isinstance(b, Finite)]
    rest = h.blocks[len(finite):]
    assert len(finite) <= 1 and not any(isinstance(b, Finite) for b in rest), h
    keys = [block_sort_key(b) for b in rest]
    assert all(a < b for a, b in zip(keys, keys[1:])), h
    assert not any(isinstance(b, Tower) and b.level == 1 for b in rest), h
    intervals = [b for b in rest if isinstance(b, Interval)]
    assert all(a.hi < b.lo for a, b in zip(intervals, intervals[1:])), h
    for iv in intervals:
        assert not any(iv.lo <= b.inf and b.sup <= iv.hi for b in h.blocks if b is not iv), h
    seqs = [b for b in rest if isinstance(b, GeomSeq)]
    assert not any(a is not b and _geom_absorbs(a, b) for a in seqs for b in seqs), h
    for p in h.finite_points():
        for b in rest:
            try:
                assert not (b.inf <= p <= b.sup and block_contains(b, p)), (h, p)
            except MembershipUndecided:
                pass


def test_normalize_idempotent_on_corpus():
    for e in gen_corpus(17, 120, "mixed"):
        once = normalize(e)
        again = normalize_blocks(once.blocks)
        assert once == again
        assert_canonical(once)


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


@pytest.mark.parametrize("profile", PROFILES)
def test_bounds_are_the_hulls_of_the_blocks_and_of_the_derived_set(profile):
    for e in gen_corpus(5, 40, profile):
        h = normalize(e)
        # _shifts reads h's bounds first, so its translates carry cached ends
        for g in (h, *(translate_set(h, x) for x in _shifts(h))):
            bd, acc = bounds(g), derived_set(g).blocks
            assert (bd.inf, bd.sup) == (min(b.inf for b in g.blocks), max(b.sup for b in g.blocks))
            assert (bd.acc_inf, bd.acc_sup) == ((min(b.inf for b in acc), max(b.sup for b in acc))
                                                if acc else (None, None)), g


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("scale", [Q(1, 2), Q(-3)])
def test_the_accumulation_end_is_kept_and_moved(level, scale):
    b = power_block(level, Q(1, 3), scale, Q(1, 5))
    end = Q(1, 3) + scale * b.sums[level - 1]
    assert b.acc_end == end
    moved = b.translate(Q(7, 2))
    assert vars(moved)["acc_end"] == end + Q(7, 2)  # carried, not computed again
    assert power_block(level, Q(1, 3) + Q(7, 2), scale, Q(1, 5)).acc_end == moved.acc_end
    bd = bounds(BlockSet((moved,)))
    assert (bd.acc_inf, bd.acc_sup) == tuple(sorted((moved.anchor, moved.acc_end)))


def test_isolated_outside_examples():
    h = bset(GeomSeq(Q(0), Q(1), Q(1, 2)))
    assert isolated_outside(h, Q(1, 8)) == [Q(1, 8), Q(1, 4), Q(1, 2)]
    assert isolated_outside(bset(Interval(Q(0), Q(1))), Q(1, 10)) == []
    h = bset(GeomSeq(Q(0), Q(1), Q(1, 2)), Finite((Q(5),)))
    assert isolated_outside(h, Q(1, 4)) == [Q(1, 4), Q(1, 2), Q(5)]


def test_isolated_outside_needs_a_positive_eps():
    from setmeans import ValidationError
    from setmeans.sets import isolated_count

    h = bset(GeomSeq(Q(0), Q(1), Q(1, 2)))
    for f in (isolated_outside, isolated_count):
        for eps in (Q(0), Q(-1, 2)):
            with pytest.raises(ValidationError, match="eps must be positive"):
                f(h, eps)


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
    assert intersect(s4, s2) == s4  # and so when they are the left operand
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


def test_a_sequence_in_one_cantor_gap_is_decided():
    # the common box of each pair lies in the closure of the gap (1/3, 2/3):
    # seq(1/2,-1/6,1/2) lies inside it, and seq(1/2,-1/3,1/2) meets the
    # Cantor set only at the gap's end 1/3
    c = bset(Cantor(Q(0), Q(1), 2, Q(1, 3)))
    inside = bset(GeomSeq(Q(1, 2), Q(-1, 6), Q(1, 2)))
    touching = bset(GeomSeq(Q(1, 2), Q(-1, 3), Q(1, 2)))
    for a, b in ((c, inside), (inside, c)):
        assert intersect(a, b).is_empty and disjoint(a, b)
    for a, b in ((c, touching), (touching, c)):
        assert intersect(a, b) == bset(Finite((Q(1, 3),))) and not disjoint(a, b)
    # a box that meets a Cantor piece stays undecided
    with pytest.raises(IntersectionNotRepresentable):
        intersect(c, bset(GeomSeq(Q(1, 2), Q(-1, 2), Q(1, 2))))


def test_a_cantor_block_is_clipped_only_to_a_box_one_gap_can_hold(monkeypatch):
    # the widest gap of cantor(0,1,2,1/3) is its top one, (1/3, 2/3): a
    # common box wider than 1/3 holds Cantor points, so the Cantor block's
    # part in it is infinite and its clip is skipped
    c = bset(Cantor(Q(0), Q(1), 2, Q(1, 3)))
    wide = bset(GeomSeq(Q(1), Q(-1), Q(1, 2)))
    one_gap = bset(GeomSeq(Q(1, 2), Q(-1, 6), Q(1, 2)))
    clipped = []
    clip = sets._clip

    def counted(b, lo, hi):
        clipped.append((type(b), hi - lo))
        return clip(b, lo, hi)

    monkeypatch.setattr(sets, "_clip", counted)
    for a, b in ((c, wide), (wide, c)):
        clipped.clear()
        with pytest.raises(IntersectionNotRepresentable):
            intersect(a, b)
        assert clipped == [(GeomSeq, Q(1, 2))]
    for a, b in ((c, one_gap), (one_gap, c)):
        clipped.clear()
        assert intersect(a, b).is_empty and disjoint(a, b)
        assert (Cantor, Q(1, 12)) in clipped
    # a box as wide as the top gap is the gap's closure, whose ends are kept
    edge = bset(GeomSeq(Q(2, 3), Q(-2, 3), Q(1, 2)))
    clipped.clear()
    assert intersect(c, edge) == bset(Finite((Q(1, 3),)))
    assert clipped == [(Cantor, Q(1, 3))]


def test_a_lone_tower_counts_with_no_float(monkeypatch):
    # no other block comes near the tower, so it is apart at every eps (None,
    # not a float infinity), its count is the closed form, and no rational
    # is compared with a float on the way
    import fractions

    h = bset(Tower(2, Q(0), Q(1), Q(1, 4)))
    assert sets._apart(h, 0) is None
    richcmp = fractions.Fraction._richcmp

    def checked(a, b, op):
        assert not isinstance(b, float), (a, b)
        return richcmp(a, b, op)

    monkeypatch.setattr(fractions.Fraction, "_richcmp", checked)
    for eps in (Q(1, 16), Q(1, 64), Q(1, 1000)):
        assert isolated_count(h, eps) == len(isolated_outside(h, eps)) > 0


def test_disjoint_stops_at_the_first_overlap():
    s2 = bset(Finite((Q(0),)), GeomSeq(Q(0), Q(1), Q(1, 2)))
    s3 = bset(Finite((Q(0),)), GeomSeq(Q(0), Q(1), Q(1, 3)))
    # the shared point comes before the undecidable pair of sequences
    assert not disjoint(s2, s3)
    with pytest.raises(IntersectionNotRepresentable):
        intersect(s2, s3)
    with pytest.raises(IntersectionNotRepresentable):
        disjoint(bset(GeomSeq(Q(0), Q(1), Q(1, 2))), bset(GeomSeq(Q(0), Q(1), Q(1, 3))))
    assert disjoint(s2, bset(Interval(Q(2), Q(3))))


def _disjointness(h1, h2):
    try:
        return disjoint(h1, h2)
    except IntersectionNotRepresentable as exc:
        return str(exc)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_disjoint_union_is_the_normalized_union(seed):
    hs = [normalize(e) for e in gen_corpus(seed, 60, "mixed")]
    n, outcomes = len(hs), Counter()
    for i, h1 in enumerate(hs):
        for h2 in (hs[(i * 7 + 3) % n], hs[(i * 13 + 5) % n]):
            for g in (h2, *(translate_set(h2, x) for x in _shifts(h2))):
                want = _disjointness(h1, g)
                outcomes[want if isinstance(want, bool) else "undecidable"] += 1
                if isinstance(want, str):
                    with pytest.raises(IntersectionNotRepresentable, match=re.escape(want)):
                        disjoint_union(h1, g)
                elif want:
                    u, want = disjoint_union(h1, g), reference_canonical([*h1.blocks, *g.blocks])
                    assert u == union_sets(h1, g) == want, (h1, g)
                    assert_canonical(u)
                else:
                    assert disjoint_union(h1, g) is None, (h1, g)
    # disjoint pairs, meeting pairs, and undecidable pairs all occur
    assert outcomes[True] and outcomes[False] and outcomes["undecidable"]


@pytest.mark.parametrize("h1, h2, union", [
    # closed intervals that touch share their common end
    (bset(Interval(Q(0), Q(1))), bset(Interval(Q(1), Q(2))), None),
    # a sequence's anchor is not its point, so the finite point stays
    (bset(Finite((Q(0),))), bset(GeomSeq(Q(0), Q(1), Q(1, 2))),
     (Finite((Q(0),)), GeomSeq(Q(0), Q(1), Q(1, 2)))),
    # 1/3 ends the top gap of the Cantor set, 1/2 lies inside it
    (bset(Finite((Q(1, 3),))), bset(Cantor(Q(0), Q(1), 2, Q(1, 3))), None),
    (bset(Finite((Q(1, 2),))), bset(Cantor(Q(0), Q(1), 2, Q(1, 3))),
     (Finite((Q(1, 2),)), Cantor(Q(0), Q(1), 2, Q(1, 3)))),
    # every point of seq(0,1,1/4) is one of seq(0,1,1/2)
    (bset(GeomSeq(Q(0), Q(1), Q(1, 4))), bset(GeomSeq(Q(0), Q(1), Q(1, 2))), None),
    # interleaved finite points, and blocks that come in the other set's order
    (bset(Finite((Q(0), Q(2), Q(4))), Interval(Q(10), Q(11))),
     bset(Finite((Q(1), Q(3))), GeomSeq(Q(20), Q(1), Q(1, 2))),
     (Finite((Q(0), Q(1), Q(2), Q(3), Q(4))), GeomSeq(Q(20), Q(1), Q(1, 2)),
      Interval(Q(10), Q(11)))),
], ids=["touching intervals", "point at an anchor", "point at a gap end",
        "point in a gap", "subsequence", "interleaved"])
def test_disjoint_union_edges(h1, h2, union):
    for a, b in ((h1, h2), (h2, h1)):
        got = disjoint_union(a, b)
        assert got == (None if union is None else BlockSet(union))
        assert disjoint(a, b) == (got is not None)
        assert got is None or got == union_sets(a, b)


def test_contains_across_blocks():
    h = bset(GeomSeq(Q(0), Q(1), Q(1, 2)), Interval(Q(2), Q(3)))
    assert contains(h, Q(1, 16))
    assert contains(h, Q(5, 2))
    assert not contains(h, Q(7, 4))


def test_normalize_absorbs_a_far_tail():
    # seq(0, 2**-10001, 1/2) is the tail of seq(0, 1, 1/2) from index 10002
    a = GeomSeq(Q(0), Q(1), Q(1, 2))
    assert bset(a, GeomSeq(Q(0), Q(1, 2**10001), Q(1, 2))).blocks == (a,)


# ---------------------------------------------------------------------------
# the canonical form against the plain version it replaced


def reference_canonical(blocks: list) -> BlockSet:
    """The canonical form computed plainly: blocks deduplicated by hashing,
    every finite point tested against every block, one sort at the end."""
    finite_pts: set[Q] = set()
    others: list = []
    for b in blocks:
        if isinstance(b, Finite):
            finite_pts.update(b.points)
        elif isinstance(b, Tower) and b.level == 1:
            others.append(GeomSeq(b.anchor, b.scale, b.ratio))
        else:
            others.append(b)
    others = list(dict.fromkeys(others))  # drop structurally identical blocks

    # merge overlapping or touching intervals
    intervals = sorted((b for b in others if isinstance(b, Interval)), key=lambda b: (b.lo, b.hi))
    merged: list[Interval] = []
    for iv in intervals:
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    rest = [b for b in others if not isinstance(b, Interval)]

    # blocks wholly inside an interval are absorbed by it
    kept: list = []
    for b in rest:
        if any(iv.lo <= b.inf and b.sup <= iv.hi for iv in merged):
            continue
        kept.append(b)

    # geometric sequences that are tails/subsequences of another are dropped
    seqs = [b for b in kept if isinstance(b, GeomSeq)]
    drop = set()
    for i, b in enumerate(seqs):
        for a in seqs:
            if a is not b and a not in drop and _geom_absorbs(a, b):
                drop.add(b)
                break
    kept = [b for b in kept if b not in drop]

    final = list(merged) + kept

    # finite points duplicated inside another block are removed
    clean_pts = []
    for p in sorted(finite_pts):
        dup = False
        for b in final:
            if b.inf <= p <= b.sup:
                try:
                    if block_contains(b, p):
                        dup = True
                        break
                except MembershipUndecided:
                    pass  # keep the point; undecided duplication is harmless
        if not dup:
            clean_pts.append(p)
    if clean_pts:
        final.append(Finite(tuple(clean_pts)))

    return BlockSet(tuple(sorted(final, key=block_sort_key)))


@contextmanager
def canonical_calls():
    """Yield a list that collects (input blocks, result) of every
    sets.normalize_blocks call made inside the with statement."""
    calls = []
    real = sets.normalize_blocks

    def spy(blocks):
        blocks = list(blocks)
        out = real(list(blocks))
        calls.append((blocks, out))
        return out

    with mock.patch.object(sets, "normalize_blocks", spy):
        yield calls


def set_algebra(hs, rng):
    """Unions of 2-4 of the sets, their translates and below/above cuts,
    their derived sets and their pairwise intersections; a set's union with
    itself and with its two cut halves repeats blocks and points."""
    for h in hs:
        x = Q(rng.randint(-40, 40), rng.choice([1, 2, 3, 8]))
        y = Q(rng.randint(-60, 60), 8)
        normalize(Translate(h.to_expr(), x))
        try:
            union_sets(h, cut_set(h, y, True), cut_set(h, y, False))
        except CutNotRepresentable:
            pass
        union_sets(h, h)
        derived_set(h)
    for _ in range(len(hs)):
        union_sets(*rng.sample(hs, rng.randint(2, min(4, len(hs)))))
        try:
            intersect(*rng.sample(hs, 2))
        except IntersectionNotRepresentable:
            pass


def assert_same_as_reference(calls):
    for blocks, out in calls:
        want = reference_canonical(list(blocks))
        assert [(type(b), b) for b in out.blocks] == [(type(b), b) for b in want.blocks], blocks
        assert_canonical(out)


@pytest.mark.parametrize("profile", PROFILES)
def test_canonical_form_matches_the_reference(profile):
    rng = random.Random(f"canonical:{profile}")
    with canonical_calls() as calls:
        hs = [normalize(e) for e in gen_corpus(67, 40, profile)]
        hs += [normalize(e) for e in gen_corpus(71, 10, "mixed")]
        set_algebra(hs, rng)
    assert len(calls) > 300
    assert_same_as_reference(calls)


@given(seed=st.integers(0, 10**6), profiles=st.lists(st.sampled_from(PROFILES), min_size=2,
                                                     max_size=4))
def test_canonical_form_matches_the_reference_on_draws(seed, profiles):
    with canonical_calls() as calls:
        hs = [normalize(gen_corpus(seed, 1, p)[0]) for p in profiles]
        set_algebra(hs, random.Random(seed))
    assert_same_as_reference(calls)
