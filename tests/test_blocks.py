"""Block-level primitives against brute-force oracles."""

import itertools
import random
import re
from fractions import Fraction as Q

import pytest

import setmeans
from setmeans import (
    Cantor,
    CutNotRepresentable,
    Finite,
    GeomSeq,
    Interval,
    MembershipUndecided,
    Tower,
    ValidationError,
)
from setmeans import blocks
from setmeans.blocks import (
    _cantor_descend,
    block_contains,
    block_dist_at_least,
    block_min_dist,
    cut_block,
    tower_outer_points,
)
from setmeans.cli import run_command
from setmeans.sets import _clip


def tower_points_brute(k, a, w, r, max_index):
    """Oracle: enumerate every index tuple up to a depth cap."""
    pts = set()
    for j in range(1, k + 1):
        for combo in itertools.combinations(range(1, max_index + 1), j):
            pts.add(a + w * sum(r**n for n in combo))
    return pts


def test_validation_ranges():
    with pytest.raises(ValidationError):
        Finite(())
    with pytest.raises(ValidationError):
        GeomSeq(Q(0), Q(0), Q(1, 2))
    with pytest.raises(ValidationError):
        GeomSeq(Q(0), Q(1), Q(1))
    with pytest.raises(ValidationError):
        Tower(2, Q(0), Q(1), Q(1, 2))  # ratio must stay below 1/3
    with pytest.raises(ValidationError):
        Tower(0, Q(0), Q(1), Q(1, 4))
    with pytest.raises(ValidationError):
        Interval(Q(1), Q(1))
    with pytest.raises(ValidationError):
        Cantor(Q(0), Q(1), 2, Q(1, 2))  # ratio must stay below 1/pieces
    with pytest.raises(ValidationError):
        Cantor(Q(0), Q(1), 1, Q(1, 4))


def test_finite_points_sorted_deduped():
    f = Finite((Q(3), Q(1), Q(3), Q(2)))
    assert f.points == (Q(1), Q(2), Q(3))


@pytest.mark.parametrize("make, message", [
    (lambda: GeomSeq(0, 1, Q(0)), "geometric sequence ratio must be in (0, 1)"),
    (lambda: GeomSeq(0, 1, Q(-1, 2)), "geometric sequence ratio must be in (0, 1)"),
    (lambda: GeomSeq(0, 1, 1), "geometric sequence ratio must be in (0, 1)"),
    (lambda: GeomSeq(0, Q(0), Q(1, 2)), "geometric sequence scale must be nonzero"),
    (lambda: Tower(1, 0, 1, Q(1)), "tower ratio must be in (0, 1)"),
    (lambda: Tower(3, 0, 1, Q(1, 3)), "tower ratio must be in (0, 1/3)"),
    (lambda: Tower(2, 0, 1, Q(-1, 4)), "tower ratio must be in (0, 1/3)"),
    (lambda: Tower(2, 0, 0, Q(1, 4)), "tower scale must be nonzero"),
    (lambda: Cantor(0, 1, 3, Q(1, 3)), "cantor ratio must be in (0, 1/pieces)"),
    (lambda: Cantor(0, 1, 2, Q(0)), "cantor ratio must be in (0, 1/pieces)"),
])
def test_a_ratio_or_scale_outside_its_range_is_named(make, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make()


def test_a_ratio_just_inside_its_range_is_accepted():
    # the checks read the ratio's integers: r < 1/m is m * num < den
    assert GeomSeq(0, 1, Q(99, 100)).ratio == Q(99, 100)
    assert Tower(1, 0, 1, Q(99, 100)).ratio == Q(99, 100)
    assert Tower(2, 0, -1, Q(33, 100)).ratio == Q(33, 100)
    assert Cantor(0, 1, 3, Q(33, 100)).ratio == Q(33, 100)
    assert type(GeomSeq(0, 1, Q(1, 2)).ratio) is setmeans.Q


@pytest.mark.parametrize("points, kept", [
    ((1, Q(3, 2), 2), (1, Q(3, 2), 2)),  # increasing: taken as read
    ((2, 1, Q(3, 2)), (1, Q(3, 2), 2)),
    ((1, 1, 2), (1, 2)),  # sorted but not strictly
    ((Q(7),), (7,)),
])
def test_finite_keeps_its_points_increasing_and_distinct(points, kept):
    f = Finite(points)
    assert f.points == kept
    assert all(type(p) is setmeans.Q for p in f.points)


def test_geomseq_bounds():
    b = GeomSeq(Q(0), Q(1), Q(1, 2))
    assert (b.inf, b.sup) == (Q(0), Q(1, 2))
    b = GeomSeq(Q(1), Q(-1), Q(1, 2))
    assert (b.inf, b.sup) == (Q(1, 2), Q(1))


def test_a_bound_is_computed_on_first_read_and_kept():
    b = Tower(2, Q(0), Q(1), Q(1, 4))
    assert "sup" not in vars(b) and "sums" not in vars(b)
    assert b.sup is b.sup and vars(b)["sup"] == Q(5, 16)
    assert vars(b)["sums"] == (0, Q(1, 4), Q(5, 16))
    assert isinstance(blocks.PowerSums.__dict__["sums"], blocks.cached_property)


def test_tower_bounds():
    b = Tower(2, Q(0), Q(1), Q(1, 4))
    assert b.inf == 0
    assert b.sup == Q(1, 4) + Q(1, 16)


def test_geomseq_membership():
    b = GeomSeq(Q(0), Q(1), Q(1, 2))
    assert block_contains(b, Q(1, 8))
    assert not block_contains(b, Q(0))  # the anchor is a limit, not a member
    assert not block_contains(b, Q(3, 8))
    assert not block_contains(b, Q(1))  # powers start at n = 1


def test_tower_membership_against_brute_force():
    rng = random.Random(2)
    # level 1 is the geometric sequence, so it takes any ratio below 1
    for k, r in [(1, Q(1, 5)), (2, Q(1, 4)), (3, Q(1, 5)), (1, Q(1, 2)), (1, Q(2, 3))]:
        t = Tower(k, Q(0), Q(1), r)
        brute = tower_points_brute(k, Q(0), Q(1), r, 30)
        for p in tower_points_brute(k, Q(0), Q(1), r, 8):
            assert block_contains(t, p)
        for _ in range(100):
            x = Q(rng.randint(0, 80), rng.choice([64, 128, 243]))
            assert block_contains(t, x) == (x in brute)


def test_interval_and_cantor_membership():
    assert block_contains(Interval(Q(0), Q(1)), Q(1, 2))
    assert not block_contains(Interval(Q(0), Q(1)), Q(2))
    c = Cantor(Q(0), Q(1), 2, Q(1, 3))
    assert not block_contains(c, Q(1, 2))  # first removed middle third
    assert block_contains(c, Q(1, 3))
    assert block_contains(c, Q(1, 4))  # orbit 1/4 -> 3/4 -> 1/4 cycles inside
    assert block_contains(c, Q(3, 10))
    assert not block_contains(c, Q(2, 5))


def test_min_dist_matches_brute_force():
    rng = random.Random(3)
    for k, r in [(2, Q(1, 4)), (1, Q(1, 2)), (1, Q(2, 3))]:
        t = Tower(k, Q(0), Q(1), r)
        deep = tower_points_brute(k, Q(0), Q(1), r, 26)
        for _ in range(200):
            x = Q(rng.randint(-20, 90), rng.choice([16, 64, 256]))
            claimed = block_min_dist(t, x)
            brute = min(abs(x - p) for p in deep)
            assert claimed <= brute
            if x <= 0:
                # below the anchor the infimum distance is |x|, never attained
                assert claimed == -x
            elif x >= r**10:
                # the nearest point is shallow, so the brute list attains it
                assert claimed == brute


def test_geomseq_min_dist():
    b = GeomSeq(Q(0), Q(1), Q(1, 2))
    assert block_min_dist(b, Q(3, 8)) == Q(1, 8)
    assert block_min_dist(b, Q(-1, 4)) == Q(1, 4)
    assert block_min_dist(b, Q(2)) == Q(3, 2)
    assert block_min_dist(b, Q(1, 16)) == 0


def test_cantor_dist_at_least():
    c = Cantor(Q(0), Q(1), 2, Q(1, 3))
    assert block_dist_at_least(c, Q(1, 2), Q(1, 6))
    assert not block_dist_at_least(c, Q(1, 2), Q(1, 5))
    assert block_dist_at_least(c, Q(2), Q(1))
    assert not block_dist_at_least(c, Q(1, 4), Q(1, 100))  # member: distance 0


@pytest.mark.parametrize("keep_low", [True, False])
def test_cut_geomseq(keep_low):
    b = GeomSeq(Q(0), Q(1), Q(1, 2))
    parts = cut_block(b, Q(1, 8), keep_low)
    if keep_low:
        # the part at or below 1/8 is the tail, again a geometric sequence
        assert parts == [GeomSeq(Q(0), Q(1, 4), Q(1, 2))]
    else:
        assert parts == [Finite((Q(1, 8), Q(1, 4), Q(1, 2)))]


def test_cut_geomseq_between_points():
    b = GeomSeq(Q(0), Q(1), Q(1, 2))
    low = cut_block(b, Q(3, 16), True)
    assert low == [GeomSeq(Q(0), Q(1, 4), Q(1, 2))]
    high = cut_block(b, Q(3, 16), False)
    assert high == [Finite((Q(1, 4), Q(1, 2)))]


def test_cut_interval():
    iv = Interval(Q(0), Q(2))
    assert cut_block(iv, Q(1), False) == [Interval(Q(1), Q(2))]
    assert cut_block(iv, Q(1), True) == [Interval(Q(0), Q(1))]
    assert cut_block(iv, Q(0), True) == [Finite((Q(0),))]
    assert cut_block(iv, Q(-1), True) == []


def test_cut_tower_against_membership_oracle():
    rng = random.Random(7)
    for i in range(60):
        if i < 40:
            k = rng.choice([1, 2, 3])
            r = Q(1, rng.choice([4, 5, 6]))
        else:
            k, r = 1, (Q(1, 2), Q(2, 3))[i % 2]  # sequence ratios a tower never takes
        w = rng.choice([Q(1), Q(-1), Q(2), Q(1, 2)])
        a = Q(rng.randint(-4, 4))
        t = Tower(k, a, w, r)
        brute = tower_points_brute(k, a, w, r, 11)
        y = Q(rng.randint(-40, 40), rng.choice([8, 16, 13, 64]))
        for keep_low in (True, False):
            parts = cut_block(t, y, keep_low)
            want = {p for p in brute if (p <= y if keep_low else p >= y)}
            got = {
                p
                for b in parts
                for p in brute
                if b.inf <= p <= b.sup and block_contains(b, p)
            }
            assert got == want


def test_cut_cantor_gap_and_endpoint():
    c = Cantor(Q(0), Q(1), 2, Q(1, 3))
    assert cut_block(c, Q(1, 2), True) == [Cantor(Q(0), Q(1, 3), 2, Q(1, 3))]
    assert cut_block(c, Q(1, 2), False) == [Cantor(Q(2, 3), Q(1), 2, Q(1, 3))]
    low = cut_block(c, Q(1, 3), True)
    assert low == [Cantor(Q(0), Q(1, 3), 2, Q(1, 3))]
    high = cut_block(c, Q(1, 3), False)
    # 1/3 itself stays on both sides of the cut
    assert Finite((Q(1, 3),)) in high
    with pytest.raises(CutNotRepresentable):
        cut_block(c, Q(1, 4), True)  # attractor point with a cycling orbit


def test_cut_cantor_past_the_budget_names_it():
    # 3**-600/2 lies in a gap only at depth 600: no attractor point, but
    # past the CANTOR_DEPTH budget of 512 levels
    c = Cantor(Q(0), Q(1), 2, Q(1, 3))
    for keep_low in (True, False):
        with pytest.raises(CutNotRepresentable, match="CANTOR_DEPTH budget of 512 levels"):
            cut_block(c, Q(1, 2 * 3**600), keep_low)
    # a cycling orbit keeps its message, which round reports verbatim
    with pytest.raises(CutNotRepresentable) as exc:
        cut_block(c, Q(1, 4), True)
    assert str(exc.value) == "cut at 1/4 lands inside a cantor block at a non-gap point"


def box_membership(c, x):
    """Cantor membership read off the absolute boxes of the descent."""
    for depth, ((lo, hi), i, gap) in enumerate(_cantor_descend(c, x)):
        if depth == blocks.CANTOR_DEPTH:
            return "undecided"
        if i is None:
            return lo <= x <= hi
        if gap:
            return False
    return True


def test_cantor_membership_budget(monkeypatch):
    # 3**-k/2 lies in a gap at depth k, so it is decided below the budget
    # and undecided at it; 3**-k ends the walk at depth k on a box end
    c = Cantor(Q(0), Q(1), 2, Q(1, 3))
    assert block_contains(c, Q(1, 2 * 3**511)) is False
    with pytest.raises(MembershipUndecided, match="depth 512"):
        block_contains(c, Q(1, 2 * 3**512))
    monkeypatch.setattr(blocks, "CANTOR_DEPTH", 5)
    assert block_contains(c, Q(1, 2 * 3**4)) is False
    with pytest.raises(MembershipUndecided, match="depth 5"):
        block_contains(c, Q(1, 2 * 3**5))
    assert block_contains(c, Q(1, 3**4)) is True
    with pytest.raises(MembershipUndecided):
        block_contains(c, Q(1, 3**5))
    # the orbit of 1/4 cycles (1/4, 3/4, 1/4) within any budget above 2
    assert block_contains(c, Q(1, 4)) is True
    assert [block_contains(c, x) for x in (Q(0), Q(1), Q(-1), Q(2))] == [True, True, False, False]
    rng = random.Random(512)
    for _ in range(300):
        m = rng.choice([2, 3])
        c = Cantor(Q(rng.randint(-3, 3)), Q(4), m, Q(1, rng.choice([m + 1, m + 2])))
        x = Q(rng.randint(-30, 130), rng.choice([27, 32, 81, 125]))
        try:
            got = block_contains(c, x)
        except MembershipUndecided:
            got = "undecided"
        assert got == box_membership(c, x), (c, x)


def test_cut_cantor_stops_when_the_orbit_cycles(monkeypatch):
    # the orbit of 1/2 in cantor(0,1,3,1/4) stays in (1/L)Z with
    # L = lcm(den(1/2), m - 1) = 2, so the cut gives up within L + 1 levels,
    # each building at most m pieces
    built = []
    piece = Cantor.piece
    monkeypatch.setattr(Cantor, "piece", lambda self, i: built.append(i) or piece(self, i))
    for keep_low in (True, False):
        built.clear()
        with pytest.raises(CutNotRepresentable):
            cut_block(Cantor(Q(0), Q(1), 3, Q(1, 4)), Q(1, 2), keep_low)
        assert len(built) <= 3 * (2 + 1), len(built)
    # kbounds reads the bounds without a cut, so the cut at 1/2 costs it nothing
    code, rep = run_command(["kbounds", "--mean", "avg", "cantor(0,1,3,1/4)"])
    assert code == 0
    assert [rep["result"][k]["value"]["num"] for k in ("k_liminf", "k_limsup")] == ["0", "1"]


def cut_cantor_reference(b, y, keep_low):
    """The cut as it was first written: both sides built level by level."""
    low, high = [], []
    for depth, ((lo, hi), i, gap) in enumerate(_cantor_descend(b, y)):
        if depth == blocks.CANTOR_DEPTH:
            raise CutNotRepresentable("budget")
        box = Cantor(lo, hi, b.pieces, b.ratio)
        if i is None:
            (high if y <= lo else low).append(box)
            if y == lo:
                low.append(Finite((y,)))
            if y == hi:
                high.append(Finite((y,)))
            return low if keep_low else high
        low.extend(box.piece(j) for j in range(i))
        high.extend(box.piece(j) for j in range(i + 1, b.pieces))
        if gap:
            low.append(box.piece(i))
            return low if keep_low else high
    raise CutNotRepresentable("cycle")


def test_cut_cantor_that_raises_builds_no_block(monkeypatch):
    built = []
    init = Cantor.__post_init__
    monkeypatch.setattr(Cantor, "__post_init__", lambda self: built.append(self) or init(self))
    cases = [(Cantor(Q(0), Q(1), 2, Q(1, 3)), y) for y in (Q(1, 4), Q(1, 10), Q(3, 40))]
    cases.append((Cantor(Q(0), Q(1), 3, Q(1, 4)), Q(1, 2)))
    for c, y in cases:
        for keep_low in (True, False):
            built.clear()
            with pytest.raises(CutNotRepresentable):
                cut_block(c, y, keep_low)
            assert built == [], (y, keep_low)


def test_cut_cantor_builds_boxes_only_where_it_keeps_a_piece(monkeypatch):
    c = Cantor(Q(0), Q(1), 2, Q(1, 3))
    low, high = Cantor(Q(0), Q(1, 3), 2, Q(1, 3)), Cantor(Q(2, 3), Q(1), 2, Q(1, 3))
    low_of_low = Cantor(Q(0), Q(1, 9), 2, Q(1, 3))
    built = []
    init = Cantor.__post_init__
    monkeypatch.setattr(Cantor, "__post_init__", lambda self: built.append(self) or init(self))
    # a gap of level 0: the box is c itself, and the kept piece is all that is built
    for keep_low, want in ((True, low), (False, high)):
        built.clear()
        assert cut_block(c, Q(1, 2), keep_low) == [want]
        assert built == [want], keep_low
    # a gap of level 1: level 0 keeps no piece below 1/6, so only the
    # level-1 box and its kept piece are built
    built.clear()
    assert cut_block(c, Q(1, 6), True) == [low_of_low]
    assert built == [low, low_of_low]


def test_cut_cantor_matches_the_reference():
    rng = random.Random(545)
    ok = 0
    for _ in range(400):
        m = rng.choice([2, 3])
        c = Cantor(Q(rng.randint(-3, 3)), Q(4), m, Q(1, rng.choice([m + 1, m + 2])))
        y = Q(rng.randint(-30, 130), rng.choice([9, 27, 32, 81]))
        for keep_low in (True, False):
            try:
                want = cut_cantor_reference(c, y, keep_low)
            except CutNotRepresentable:
                with pytest.raises(CutNotRepresentable):
                    cut_block(c, y, keep_low)
                continue
            assert cut_block(c, y, keep_low) == want, (c, y, keep_low)
            ok += 1
    assert ok > 400


def test_outer_point_enumeration():
    b = GeomSeq(Q(0), Q(1), Q(1, 2))
    assert tower_outer_points(b, Q(1, 8)) == [Q(1, 2), Q(1, 4), Q(1, 8)]
    t = Tower(2, Q(0), Q(1), Q(1, 4))
    pts = tower_outer_points(t, Q(1, 64))
    brute = {
        p
        for p in tower_points_brute(2, Q(0), Q(1), Q(1, 4), 12)
        if min(abs(p - q) for q in tower_points_brute(1, Q(0), Q(1), Q(1, 4), 14) | {Q(0)})
        >= Q(1, 64)
    }
    assert set(pts) == brute


def test_points_in_box():
    # a block's part of a box comes from two cuts (sets._clip): finitely
    # many points make one Finite part, and an infinite part means the box
    # reaches an accumulation point with approach room
    b = GeomSeq(Q(0), Q(1), Q(1, 2))
    assert _clip(b, Q(1, 8), Q(1, 2)) == [Finite((Q(1, 8), Q(1, 4), Q(1, 2)))]
    assert _clip(b, Q(0), Q(1, 2)) == [b]  # the box reaches the anchor
    assert _clip(b, Q(3, 4), Q(2)) == []
    t = Tower(2, Q(0), Q(1), Q(1, 4))
    # [1/5, 1/2] straddles the accumulation point 1/4, hence infinite
    assert _clip(t, Q(1, 5), Q(1, 2)) == [GeomSeq(Q(1, 4), Q(1, 4), Q(1, 4)), Finite((Q(1, 4),))]
    # [13/48, 1/2] avoids every accumulation point, hence exactly {5/16}
    (got,) = _clip(t, Q(13, 48), Q(1, 2))
    brute = sorted(
        p
        for p in tower_points_brute(2, Q(0), Q(1), Q(1, 4), 30)
        if Q(13, 48) <= p <= Q(1, 2)
    )
    assert list(got.points) == brute == [Q(5, 16)]


# S_1200 = 4**-1 + ... + 4**-1200, a point 1,200 clusters deep in a tower
S_1200 = Q(4**1200 - 1, 3 * 4**1200)
DEEP = Tower(1500, Q(0), Q(1), Q(1, 4))


def test_kernels_walk_a_deep_tower_in_a_loop():
    assert block_contains(DEEP, S_1200)
    assert block_min_dist(DEEP, S_1200) == 0
    # halfway from S_1200 to the next point up: the nearest point is in the block
    x = S_1200 + Q(1, 2 * 4**1300)
    d = block_min_dist(DEEP, x)
    assert 0 < d <= Q(1, 2 * 4**1300)
    assert block_contains(DEEP, x - d) or block_contains(DEEP, x + d)
    low, high = cut_block(DEEP, S_1200, True), cut_block(DEEP, S_1200, False)
    # the tower parts hold the cut block's sums as built: none computes its own
    towers = [b for b in low + high if not isinstance(b, Finite)]
    assert len(towers) > 1000
    assert all(vars(b)["sums"] == DEEP.sums[:b.level + 1] for b in towers)
    # the cut point is in the set, so it stays on both sides
    assert max(b.sup for b in low) == S_1200 == min(b.inf for b in high)
    assert all(block_contains(b, S_1200) for b in low + high if isinstance(b, Finite))


def test_intersect_clips_a_deep_tower():
    from setmeans.sets import intersect, normalize_blocks

    h = normalize_blocks([DEEP])
    got = intersect(h, normalize_blocks([Interval(S_1200, Q(1))]))
    assert got.blocks == normalize_blocks(cut_block(DEEP, S_1200, False)).blocks
    assert got.blocks[0].points[0] == S_1200


def test_distance_kernels_at_interval_and_cantor_blocks():
    from setmeans import isolated_outside, normalize, parse

    # 2 is 1 from [0, 1]; the other points of the sequence are within 1/8 of it
    assert isolated_outside(normalize(parse("[0,1] U seq(0,4,1/2)")), Q(1, 8)) == [Q(2)]
    assert block_min_dist(Interval(Q(0), Q(1)), Q(1, 2)) == 0
    c = Cantor(Q(0), Q(1), 2, Q(1, 3))
    with pytest.raises(TypeError):
        block_min_dist(c, Q(1, 2))
    # 1/4 is in c, so a box of c within 1/2 of it has an end in c
    assert block_dist_at_least(c, Q(1, 4), Q(1, 2)) is False


def test_reflect_blocks():
    assert GeomSeq(Q(0), Q(1), Q(1, 2)).reflect(Q(0)) == GeomSeq(Q(0), Q(-1), Q(1, 2))
    assert Interval(Q(1), Q(2)).reflect(Q(0)) == Interval(Q(-2), Q(-1))
    t = Tower(2, Q(0), Q(1), Q(1, 4)).reflect(Q(1))
    assert t == Tower(2, Q(2), Q(-1), Q(1, 4))
    c = Cantor(Q(0), Q(1), 3, Q(1, 4)).reflect(Q(1, 2))
    assert c == Cantor(Q(0), Q(1), 3, Q(1, 4))


def test_finite_builders_return_strictly_increasing_fractions():
    # these build through Finite.of_sorted, which trusts its points unchecked
    from setmeans.sets import _block_intersect, derived_set, normalize_blocks

    rng = random.Random(11)
    for _ in range(40):
        f = Finite(tuple(Q(rng.randint(-40, 40), rng.choice((1, 2, 3)))
                         for _ in range(rng.randint(1, 8))))
        y = Q(rng.randint(-40, 40), 2)
        built = [f.translate(Q(rng.randint(-9, 9), 4)), f.translate(3),
                 f.reflect(Q(1, 3)), f.reflect(2)]
        built += cut_block(f, y, keep_low=True) + cut_block(f, y, keep_low=False)
        built += _block_intersect(f, Interval(y, y + 5))
        built += _block_intersect(f, GeomSeq(y, Q(1), Q(1, 2)))
        for b in built:
            assert all(type(p) is setmeans.Q for p in b.points)
            assert all(p < q for p, q in zip(b.points, b.points[1:]))
            assert b == Finite(b.points)
    h = normalize_blocks([GeomSeq(2, 1, Q(1, 2)), Tower(2, -1, 1, Q(1, 4))])
    (anchors,) = [b for b in derived_set(h).blocks if isinstance(b, Finite)]
    assert anchors.points == (Q(-1), Q(2)) and all(type(p) is setmeans.Q for p in anchors.points)
    with pytest.raises(ValidationError):
        f.translate(0.5)
