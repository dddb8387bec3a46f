"""Cross-checks of the main pipelines against independent evaluators.

These oracles never touch the code paths they check: membership is
evaluated directly on the expression tree, intersections are compared
point by point, the isolated-point mean is recomputed from the plain
isolation enumeration, which is itself checked against a per-eps
enumeration, the inclusion-exclusion of shared isolated points against
a walk over every subfamily, accumulation bounds against the derived set's
hull, translated blocks against their validating constructors, block
intersections against a test of every finite point, levels against a walk
of built derived sets, the one order rule of smallness against the
per-mean rules it replaced, k-bounds against a scan of cuts, and the
roundness decision against the exact defect of the halves' means.
"""

import dataclasses
import itertools
import math
import random
from collections import Counter, namedtuple
from fractions import Fraction as Q

import pytest

import setmeans
from setmeans import (
    Answer,
    CutAbove,
    CutBelow,
    Bounds,
    Finite,
    GeomSeq,
    IntersectionNotRepresentable,
    Leaf,
    MeanKind,
    MembershipUndecided,
    SetMeansError,
    Translate,
    Union,
    ValidationError,
    bounds,
    contains,
    cut_set,
    gen_corpus,
    intersect,
    is_small_for,
    isolated_outside,
    k_bounds,
    level,
    mean_of,
    normalize,
    normalize_blocks,
    parse,
    translate_set,
    union_sets,
)
from setmeans.blocks import (
    Cantor,
    Interval,
    PowerSums,
    block_contains,
    block_dist_at_least,
    cut_block,
    tower_outer_points,
)
from setmeans.errors import CutNotRepresentable, DomainViolation
from setmeans.laws import PROFILES, _union_if_disjoint
from setmeans.means import (
    DEFAULT_CONFIG,
    MeanValue,
    _progressions_union,
    arith_mean,
    compare_dims,
    dimension_of,
    iso_growth,
    order,
)
from setmeans.roundness import round_pass
from setmeans.sets import _geom_absorbs, derived_set, disjoint, top_level


def expr_contains(e, x: Q) -> bool:
    """Membership evaluated on the raw tree, independent of normalization."""
    if isinstance(e, Leaf):
        return block_contains(e.block, x)
    if isinstance(e, Union):
        return any(expr_contains(p, x) for p in e.parts)
    if isinstance(e, Translate):
        return expr_contains(e.child, x - e.offset)
    if isinstance(e, CutBelow):
        return x <= e.at and expr_contains(e.child, x)
    if isinstance(e, CutAbove):
        return x >= e.at and expr_contains(e.child, x)
    raise TypeError(e)


def _probes(rng, count=40):
    out = [Q(rng.randint(-400, 400), rng.choice([1, 2, 3, 4, 8, 16, 64])) for _ in range(count)]
    return out


def test_normalize_preserves_membership_everywhere():
    rng = random.Random(271)
    checked = 0
    for profile in ("finite", "sequences", "towers", "intervals", "mixed"):
        for e in gen_corpus(929 + checked, 60, profile):
            h = normalize(e)
            for x in _probes(rng):
                try:
                    assert contains(h, x) == expr_contains(e, x)
                except MembershipUndecided:
                    continue
                checked += 1
    assert checked > 5000


def test_normalize_preserves_block_parameter_points():
    # probe at the block parameters themselves, where off-by-one cut
    # handling would show up first
    for e in gen_corpus(31337, 80, "mixed"):
        h = normalize(e)
        params = set()
        for b in h.blocks:
            params.add(b.inf)
            params.add(b.sup)
        for x in sorted(params):
            try:
                assert contains(h, x) == expr_contains(e, x)
            except MembershipUndecided:
                continue


def test_intersect_agrees_with_membership():
    rng = random.Random(51)
    corpus = [normalize(e) for e in gen_corpus(4242, 60, "mixed")]
    checked = 0
    for i in range(len(corpus)):
        h1 = corpus[i]
        h2 = corpus[(i * 11 + 4) % len(corpus)]
        try:
            inter = intersect(h1, h2)
        except IntersectionNotRepresentable:
            continue
        for x in _probes(rng, 25):
            try:
                want = contains(h1, x) and contains(h2, x)
                got = contains(inter, x)
            except MembershipUndecided:
                continue
            assert got == want, (h1, h2, x)
            checked += 1
    assert checked > 400


def test_intersect_members_belong_to_both():
    corpus = [normalize(e) for e in gen_corpus(555, 50, "mixed")]
    for i in range(len(corpus)):
        h1 = corpus[i]
        h2 = corpus[(i * 7 + 2) % len(corpus)]
        try:
            inter = intersect(h1, h2)
        except IntersectionNotRepresentable:
            continue
        for p in inter.finite_points()[:10]:
            assert contains(h1, p) and contains(h2, p)


@pytest.mark.parametrize("seed", [4242, 555, 9])
def test_disjoint_agrees_with_intersect(seed):
    corpus = [normalize(e) for e in gen_corpus(seed, 60, "mixed")]
    n = len(corpus)
    outcomes = Counter()
    for i, h1 in enumerate(corpus):
        for h2 in (corpus[(i * 7 + 3) % n], corpus[(i * 13 + 5) % n], h1):
            try:
                empty = intersect(h1, h2).is_empty
            except IntersectionNotRepresentable:
                empty = None
            got = _union_if_disjoint(h1, h2)
            assert (got is not None) == (empty is True), (h1, h2)
            assert got is None or got == union_sets(h1, h2), (h1, h2)
            outcomes[empty, got is not None] += 1
    # disjoint pairs, meeting pairs, and undecidable pairs all occur
    assert outcomes[True, True] and outcomes[False, False] and outcomes[None, False]


def test_cantor_cut_partitions_membership():
    from setmeans import Cantor, CutNotRepresentable
    from setmeans.blocks import cut_block

    rng = random.Random(81)
    splits = 0
    for _ in range(300):
        m = rng.choice([2, 3])
        r = Q(1, rng.choice([3, 4, 5])) if m == 2 else Q(1, rng.choice([4, 5]))
        lo = Q(rng.randint(-8, 8))
        c = Cantor(lo, lo + rng.randint(1, 4), m, r)
        y = Q(rng.randint(-10 * 16, 14 * 16), 16)
        try:
            low = cut_block(c, y, True)
            high = cut_block(c, y, False)
        except CutNotRepresentable:
            continue
        splits += 1
        for x in _probes(rng, 20) + [y, c.lo, c.hi]:
            try:
                inside = block_contains(c, x)
                in_low = any(b.inf <= x <= b.sup and block_contains(b, x) for b in low)
                in_high = any(b.inf <= x <= b.sup and block_contains(b, x) for b in high)
            except MembershipUndecided:
                continue
            assert in_low == (inside and x <= y), (c, y, x)
            assert in_high == (inside and x >= y), (c, y, x)
    assert splits > 150


def reference_cut_cantor(b, y: Q, keep_low: bool):
    """The piece-tree cut with no cycle check.

    It walks 512 levels, the library's CANTOR_DEPTH, building every other
    piece at each, before it gives up on a point that no piece has as an end.
    """
    from setmeans import CutNotRepresentable, Finite

    low, high = [], []
    box = b
    for _ in range(512):
        if y <= box.lo:
            high.append(box)
            if y == box.lo:
                low.append(Finite((y,)))
            return low if keep_low else high
        if y >= box.hi:
            low.append(box)
            if y == box.hi:
                high.append(Finite((y,)))
            return low if keep_low else high
        m, r = box.pieces, box.ratio
        d = box.hi - box.lo
        step = d * (1 - r) / (m - 1)
        i = int((y - box.lo) / step)
        if i > m - 1:
            i = m - 1
        if y < box.lo + i * step:
            i -= 1
        p_lo = box.lo + i * step
        p_hi = p_lo + r * d
        for j in range(0, i):
            low.append(box.piece(j))
        for j in range(i + 1, m):
            high.append(box.piece(j))
        if y > p_hi:
            low.append(box.piece(i))
            return low if keep_low else high
        box = box.piece(i)
    raise CutNotRepresentable(f"cut at {y} lands inside a cantor block at a non-gap point")


def test_cantor_cut_matches_reference_walk():
    from setmeans import Cantor, CutNotRepresentable
    from setmeans.blocks import cut_block

    def outcome(cut, c, y, keep_low):
        try:
            return cut(c, y, keep_low)
        except CutNotRepresentable as exc:
            return str(exc)

    rng = random.Random(1709)
    seen = {"split": 0, "cycle": 0, "budget": 0}
    for _ in range(60):
        m = rng.choice([2, 3, 4])
        # r = 1/q, and a few r with numerator 2, whose orbits need not cycle
        r = Q(1, rng.choice([m + 1, m + 2, 7])) if rng.random() < 0.8 else Q(2, 2 * m + 1)
        lo = Q(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        c = Cantor(lo, lo + Q(rng.randint(1, 5), rng.choice([1, 2])), m, r)
        if rng.random() < 0.5:
            den = rng.choice([4, 9, 16, 27, (m - 1) * r.denominator, 2 * (m - 1) * r.denominator])
            t = Q(rng.randint(-1, den + 1), den)
        else:
            # a point whose piece address is eventually periodic: a prefix word
            # applied to the fixed point of a period word; its orbit cycles
            u = (1 - r) / (m - 1)
            words = [[rng.randrange(m) for _ in range(rng.randint(k, 3))] for k in (0, 1)]
            a, scale = Q(0), Q(1)
            for i in words[1]:
                a, scale = a + scale * i * u, scale * r
            t = a / (1 - scale)
            for i in reversed(words[0]):
                t = i * u + r * t
        y = c.lo + (c.hi - c.lo) * t
        for keep_low in (True, False):
            got = outcome(cut_block, c, y, keep_low)
            want = outcome(reference_cut_cantor, c, y, keep_low)
            if isinstance(got, str) and "CANTOR_DEPTH budget" in got:
                # past the budget the reference gives up too, under another message
                assert isinstance(want, str), (c, y, keep_low, want)
                seen["budget"] += 1
                continue
            assert got == want, (c, y, keep_low)
            seen["cycle" if isinstance(got, str) else "split"] += 1
    assert seen["split"] > 40 and seen["cycle"] > 20, seen


def reference_iso_ladder(h, cfg=DEFAULT_CONFIG):
    """The refinement ladder, from the isolation enumeration.

    Radii 1/2, 1/4, ... (60 steps); the recorded value at a step is the mean
    of the points the step added, and three recorded values that agree
    pairwise within tol end the ladder.  By Stolz-Cesaro the increments can
    only settle at the isolated-point mean, but they settle only on unions
    of sequences that share one ratio.
    """
    if h.is_finite:
        return MeanValue.approximate(float(arith_mean(h.finite_points())), cfg.tol)
    eps = Q(1, 2)
    recorded = []
    prev_count, prev_sum = 0, Q(0)
    tol = Q(cfg.tol)
    for _ in range(60):
        pts = isolated_outside(h, eps)
        count, total = len(pts), sum(pts, Q(0))
        if count > prev_count:
            recorded.append((total - prev_sum) / (count - prev_count))
            prev_count, prev_sum = count, total
            if len(recorded) >= 3:
                a, b, c = recorded[-3:]
                if abs(a - b) < tol and abs(b - c) < tol and abs(a - c) < tol:
                    return MeanValue.approximate(float(recorded[-1]), cfg.tol)
        eps /= 2
    return MeanValue.undefined("no convergence")


def test_iso_ladder_matches_reference_enumeration():
    cases = [
        normalize_blocks([GeomSeq(Q(0), Q(1), Q(1, 2))]),
        normalize_blocks([GeomSeq(Q(0), Q(1), Q(1, 2)), GeomSeq(Q(1), Q(1), Q(1, 2))]),
        normalize_blocks([GeomSeq(Q(-2), Q(-1), Q(1, 3)), GeomSeq(Q(4), Q(1), Q(1, 3))]),
    ]
    for h in cases:
        fast = mean_of(h, MeanKind.ISO)
        slow = reference_iso_ladder(h)
        assert slow.status == "approx", h
        assert abs(fast.as_float() - slow.approx) <= 2 * DEFAULT_CONFIG.tol, (h, fast, slow)


@pytest.mark.parametrize("text, want", [
    # shared points: 4**-n and 8**-n meet at every 2**-6n, so the anchor 0
    # weighs (1/2 + 1/3 - 1/6) / ln 2 against 1/ln 2 at the anchor 1
    ("seq(0,1,1/4) U seq(0,1,1/8) U seq(1,1,1/2)", Q(3, 5)),
    # 2 * 8**-m = 2**(1-3m) meets 4**-n at every 2**-(6k+2): the same count
    ("seq(0,1,1/4) U seq(0,2,1/8) U seq(1,1,1/2)", Q(3, 5)),
    # level 2: (1/2)**2 + (1/3)**2 - (1/6)**2 = 1/3 at 0 against (1/3)**2 at 1
    ("tower(2,0,1/4) U tower(2,0,1/8) U tower(2,1,1/8)", Q(1, 4)),
    # the first tower's points are all points of the second
    ("tower(2,0,1/16,1/4) U tower(2,0,1/4) U tower(2,1,1/4)", Q(1, 2)),
    # 4**-n and 6**-m never meet: 1/ln 4 + 1/ln 6 at 0 against 1/ln 2 at 1
    ("seq(0,1,1/4) U seq(0,1,1/6) U seq(1,1,1/2)",
     (1 / math.log(2)) / (1 / math.log(4) + 1 / math.log(6) + 1 / math.log(2))),
])
def test_iso_mean_is_the_limit_of_isolated_point_means(text, want):
    h = normalize(parse(text))
    v = mean_of(h, MeanKind.ISO)
    if isinstance(want, Q):
        assert (v.status, v.value) == ("exact", want)
    else:
        assert v.status == "approx" and abs(v.approx - want) <= 2 * v.tol
    # the mean of the isolated points outside eps errs by O(1/ln(1/eps))
    errors = []
    for bits in (40, 160):
        pts = isolated_outside(h, Q(1, 2**bits))
        errors.append(abs(float(sum(pts, Q(0)) / len(pts)) - float(want)))
    assert errors[1] <= errors[0] / 2, errors


def reference_isolated_outside(h, eps: Q):
    """The isolated points at distance >= eps from H', enumerated afresh at
    each eps: every candidate is measured against every block of H'."""
    acc = derived_set(h)
    candidates = set()
    for b in h.blocks:
        if isinstance(b, Finite):
            candidates.update(b.points)
        elif isinstance(b, PowerSums):
            candidates.update(tower_outer_points(b, eps))
    return sorted(x for x in candidates if all(block_dist_at_least(b, x, eps) for b in acc.blocks))


def test_isolation_profile_matches_per_eps_enumeration():
    # one set object answers eps queries in any order from its kept profile;
    # each answer must be the fresh per-eps enumeration
    from setmeans.sets import isolated_count

    down = [Q(1, 2), Q(1, 3), Q(1, 10), Q(1, 17), Q(1, 64), Q(3, 1000)]
    orders = [down + down[::-1] + [Q(1, 10), Q(1, 10), Q(1, 2)],
              down[::-1] + down + [Q(1, 64), Q(1, 3)]]
    checked = 0
    for profile in ("finite", "sequences", "towers", "intervals", "cantor", "mixed"):
        for e in gen_corpus(13, 12, profile):
            for order in orders:
                h = normalize(e)
                for eps in order:
                    want = reference_isolated_outside(normalize(e), eps)
                    assert isolated_outside(h, eps) == want, (profile, e, eps)
                    assert isolated_count(h, eps) == len(want), (profile, e, eps)
                    checked += bool(want)
    assert checked > 200


def _counted_closed_forms(monkeypatch):
    """A Counter of the blocks whose count isolated_count read in closed form."""
    from setmeans import sets

    closed = Counter()
    real = sets.tower_top_count

    def counted(b, eps):
        closed[b] += 1
        return real(b, eps)

    monkeypatch.setattr(sets, "tower_top_count", counted)
    return closed


def test_isolated_count_matches_reference_over_the_corpus(monkeypatch):
    # a fresh set at each eps, so the count comes from the closed form of
    # every tower apart at eps, and from a walk of the others
    from setmeans.sets import isolated_count

    closed = _counted_closed_forms(monkeypatch)
    checked = 0
    for seed in (1, 2, 3, 101):
        for profile in ("finite", "sequences", "towers", "mixed"):
            for e in gen_corpus(seed, 40, profile):
                for j in (1, 2, 3, 5, 8, 13, 21, 34):
                    eps = Q(1, 2**j)
                    want = len(reference_isolated_outside(normalize(e), eps))
                    assert isolated_count(normalize(e), eps) == want, (seed, profile, e, eps)
                    checked += bool(want)
    assert checked > 2000
    assert sum(closed.values()) > 2000


# eps just below, at and just above the hull gap of 1/64 between the two
# sequences; the point 1/2 is 1/64 from the anchor 33/64, and the closed
# form holds for the first sequence only up to that gap
GAP = [Q(1, 64) - Q(1, 4096), Q(1, 64), Q(1, 64) + Q(1, 4096), Q(1, 8), Q(1, 4)]
DOWN = [Q(1, 2), Q(1, 3), Q(1, 10), Q(1, 17), Q(1, 64), Q(3, 1000), Q(1, 2**20)]


@pytest.mark.parametrize("text, eps_list, n_closed", [
    ("seq(0,1,1/2) U seq(33/64,1,1/4)", GAP, 2),
    ("seq(0,1,1/2) U seq(33/64,1,1/4) U {-1}", GAP, 2),
    # one anchor, a sequence on each side: each lies on the other's anchor side
    ("seq(-39/16,-1/2,1/4) U seq(-39/16,1,1/3)", DOWN, 2),
    # a finite point inside a tower's hull keeps the tower out of the closed form
    ("seq(0,1,1/2) U {3/8}", DOWN, 0),
    ("tower(2,0,1/4) U {1/5, 7}", DOWN, 0),
    # hulls that overlap
    ("seq(-13/2,-1,1/4) U seq(-7,2,1/5)", DOWN, 0),
    ("seq(0,1,1/2) U seq(0,1,1/3)", DOWN, 0),
    # level 3, alone and next to another tower
    ("tower(3,0,1/4)", DOWN, 1),
    ("tower(3,0,1/5,-2) U tower(2,1,1/4)", DOWN, 2),
    ("tower(3,0,1/4) U seq(1/2,1,1/2)", DOWN, 2),
])
def test_isolated_count_matches_reference_on_constructed_sets(monkeypatch, text, eps_list, n_closed):
    from setmeans.sets import isolated_count

    closed = _counted_closed_forms(monkeypatch)
    h = normalize(parse(text))
    for order in (eps_list, eps_list[::-1]):
        shared = normalize(parse(text))
        for eps in order:
            want = reference_isolated_outside(h, eps)
            assert isolated_count(normalize(parse(text)), eps) == len(want), (text, eps)
            assert isolated_count(shared, eps) == len(want), (text, eps)
            assert isolated_outside(shared, eps) == want, (text, eps)
    # the blocks read in closed form at some eps
    assert len(closed) == n_closed


def test_tower_top_count_matches_the_walk_at_exact_terms():
    # eps at a term |w| * r**k exactly, and a hair either side: the integer
    # logarithm estimate of K may land on either side of the true K
    from setmeans.blocks import Tower, tower_top_count

    for level, r, w in ((1, Q(1, 2), Q(1)), (1, Q(1, 3), Q(-5, 7)), (1, Q(2, 3), Q(3)),
                        (1, Q(1, 10), Q(1, 1000)), (1, Q(99, 100), Q(1)), (2, Q(1, 4), Q(2)),
                        (3, Q(1, 5), Q(-1, 3))):
        b = Tower(level, Q(0), w, r)
        for k in range(1, 61) if level == 1 else range(1, 25, 3):
            term = abs(w) * r**k
            for eps in (term, term * (1 + Q(1, 10**30)), term * (1 - Q(1, 10**30))):
                assert tower_top_count(b, eps) == len(tower_outer_points(b, eps)), (b, k, eps)
        assert tower_top_count(b, abs(w) * r * 2) == 0


def test_tower_walk_resumes_below_the_old_floor():
    for text in ("seq(0,1,2/3)", "tower(2,1,1/4,-3)", "tower(3,0,1/5)"):
        b = normalize(parse(text)).blocks[0]
        walk, got = [], []
        for eps in (Q(1, 3), Q(1, 3), Q(1, 50), Q(1, 7), Q(1, 2**12)):
            got.extend(tower_outer_points(b, eps, walk))
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(tower_outer_points(b, Q(1, 2**12))), text


def test_descending_eps_measures_each_tower_point_once(monkeypatch):
    from setmeans import sets

    calls = Counter()
    real = sets.block_min_dist

    def counted(b, x):
        calls[b, x] += 1
        return real(b, x)

    monkeypatch.setattr(sets, "block_min_dist", counted)
    for text in ("seq(-13/2,-1,1/4) U seq(-7,2,1/5)", "tower(2,0,1/4) U {1/5} U seq(1,1,1/2)"):
        h = normalize(parse(text))
        acc = derived_set(h)
        calls.clear()
        for j in range(1, 30, 3):
            sets.isolated_count(h, Q(1, 2**j))
            sets.isolated_outside(h, Q(1, 2**j))
        assert max(calls.values()) == 1
        # every point made, and no other, was measured against every block of H'
        made = {x for b in h.blocks if isinstance(b, PowerSums)
                for x in tower_outer_points(b, Q(1, 2**28))} | set(h.finite_points())
        assert set(calls) == {(b, x) for b in acc.blocks for x in made}


def reference_progressions_union(progressions, degree: int) -> Q:
    """Inclusion-exclusion over every nonempty subfamily of the progressions
    {e_i + p_i * k}: a subfamily whose congruences have a common solution,
    found by merging them one at a time, adds (-1)**(|T|+1) / lcm(T)**degree."""
    total = Q(0)
    for mask in range(1, 2 ** len(progressions)):
        e, p = 0, 1
        for i, (ei, pi) in enumerate(progressions):
            if mask >> i & 1:
                # the solutions of x = e (mod p) are e + p*k; find one that is ei mod pi
                hit = next((e + p * k for k in range(pi) if (e + p * k - ei) % pi == 0), None)
                if hit is None:
                    break
                p = math.lcm(p, pi)
                e = hit % p
        else:
            total += Q((-1) ** (bin(mask).count("1") + 1), p**degree)
    return total


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_progressions_union_matches_every_subfamily(degree):
    rng = random.Random(1709 + degree)
    steps = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 15, 18, 20, 21, 30)
    for n in range(1, 10):
        for _ in range(6):
            fam = [rng.choice(steps) for _ in range(n)]
            x = rng.randrange(360)
            agreeing = [(x % p, p) for p in fam]  # every subfamily solves x
            clashing = [(rng.randrange(p), p) for p in fam]
            for progressions in (agreeing, clashing):
                got = _progressions_union(progressions, degree)
                want = reference_progressions_union(progressions, degree)
                assert type(got) is setmeans.Q and type(want) is Q
                assert got == want, (progressions, degree)


# ---------------------------------------------------------------------------
# set algebra: bounds, translates and block intersections

SHIFTS = (Q(0), Q(100), Q(-100), Q(7), Q(1, 3))


@pytest.fixture(scope="module")
def corpora():
    """Canonical sets of gen_corpus seeds 1-3 and 101, by (seed, profile)."""
    return {(seed, profile): [normalize(e) for e in gen_corpus(seed, 40, profile)]
            for seed in (1, 2, 3, 101) for profile in PROFILES}


def _translated_unions(corpora):
    """Each corpus set, its translates, and unions of it with another set's
    translates, the other set from the same corpus and from the next profile's."""
    for (seed, profile), hs in corpora.items():
        others = corpora[seed, PROFILES[(PROFILES.index(profile) + 1) % len(PROFILES)]]
        for i, h in enumerate(hs):
            for x in SHIFTS:
                yield translate_set(h, x)
                for g in (hs[(i * 7 + 3) % len(hs)], others[i % len(others)]):
                    yield union_sets(h, translate_set(g, x))


def reference_bounds(h):
    """The hulls of h and of its derived set, built."""
    acc = derived_set(h)
    lo, hi = min(b.inf for b in h.blocks), max(b.sup for b in h.blocks)
    if acc.is_empty:
        return Bounds(lo, hi, None, None)
    return Bounds(lo, hi, min(b.inf for b in acc.blocks), max(b.sup for b in acc.blocks))


def test_bounds_is_the_hull_of_the_derived_set(corpora):
    checked = 0
    for h in _translated_unions(corpora):
        assert bounds(h) == reference_bounds(h), h
        checked += 1
    assert checked > 5000


def constructed_translate(b, x: Q):
    """b moved by x through the block's validating constructor."""
    if isinstance(b, Finite):
        return Finite(tuple(p + x for p in b.points))
    if isinstance(b, PowerSums):
        return dataclasses.replace(b, anchor=b.anchor + x)
    return dataclasses.replace(b, lo=b.lo + x, hi=b.hi + x)


def test_translated_blocks_equal_constructed_ones(corpora):
    kinds = Counter()
    for hs in corpora.values():
        for h in hs:
            for b in h.blocks:
                # the corpus block has its bounds cached; a rebuilt one has nothing
                for src in (b, constructed_translate(b, Q(0))):
                    for x in SHIFTS:
                        got, want = src.translate(x), constructed_translate(src, x)
                        assert type(got) is type(want)
                        assert got == want and hash(got) == hash(want)
                        assert (got.inf, got.sup) == (want.inf, want.sup)
                        if isinstance(got, PowerSums):
                            assert got.sums == want.sums
                kinds[type(b).__name__] += 1
    assert set(kinds) == {"Finite", "GeomSeq", "Tower", "Interval", "Cantor"}


def test_translate_set_returns_the_canonical_translate(corpora):
    for hs in corpora.values():
        for h in hs:
            for x in SHIFTS:
                got = translate_set(h, x)
                assert got == normalize_blocks(constructed_translate(b, x) for b in h.blocks)


def test_translate_refuses_an_irrational_offset(corpora):
    kinds = set()
    for hs in corpora.values():
        for h in hs[:5]:
            with pytest.raises(ValidationError):
                translate_set(h, 0.5)
            for b in h.blocks:
                with pytest.raises(ValidationError):
                    b.translate(0.5)
                kinds.add(type(b).__name__)
    assert kinds == {"Finite", "GeomSeq", "Tower", "Interval", "Cantor"}


def test_cut_tower_points_are_a_valid_finite_block(corpora):
    """The points of a sum-of-powers cut come sorted and distinct."""
    rng = random.Random(18)
    cuts = 0
    for hs in corpora.values():
        for h in hs:
            for b in h.blocks:
                if not isinstance(b, PowerSums):
                    continue
                for _ in range(4):
                    y = b.inf + (b.sup - b.inf) * Q(rng.randint(0, 64), 64)
                    for keep_low in (True, False):
                        for part in cut_block(b, y, keep_low):
                            if isinstance(part, Finite):
                                assert part == Finite(part.points)
                                cuts += 1
    assert cuts > 500


def reference_tower_contains(b, x) -> bool:
    """Membership in a sum-of-powers block by stripping leading terms: is
    t = (x - anchor)/scale a sum r**n1 + .. + r**nj, 1 <= j <= level, of
    increasing indices?"""
    t, k, r = (x - b.anchor) / b.scale, b.level, b.ratio
    while True:
        if t <= 0 or t > b.sums[k]:
            return False
        p = r
        while p > t:  # the first-index cluster: r**n1 <= t < r**(n1-1)
            p *= r
        if t == p:
            return True
        if k == 1:
            return False
        t, k = (t - p) / p, k - 1  # strip the leading term


def test_tower_membership_matches_the_stripping_reference():
    blocks_seen, answers = 0, Counter()
    for seed in range(1, 6):
        for profile in PROFILES:
            for e in gen_corpus(seed, 40, profile):
                for b in normalize(e).blocks:
                    if not isinstance(b, PowerSums):
                        continue
                    blocks_seen += 1
                    # every point of indices up to 7, their midpoints, and the anchor
                    pts = sorted({b.anchor + b.scale * sum(b.ratio**n for n in combo)
                                  for j in range(1, b.level + 1)
                                  for combo in itertools.combinations(range(1, 8), j)})
                    mids = [(p + q) / 2 for p, q in zip(pts, pts[1:])]
                    for x in pts + mids + [b.anchor]:
                        want = reference_tower_contains(b, x)
                        assert block_contains(b, x) == want, (b, x)
                        answers[want] += 1
    assert blocks_seen > 700 and answers[True] > 10_000 and answers[False] > 10_000


def reference_cantor_gap_points(b, u, v):
    """Cantor block b's part in [u, v], u < v inside its box, when (u, v)
    lies in one of its gaps: none, or the gap's ends, found by descending
    the piece tree.  None when (u, v) meets a piece, so the part is infinite."""
    box = b
    while True:
        pieces = [box.piece(j) for j in range(box.pieces)]
        for p, q in zip(pieces, pieces[1:]):
            if p.hi <= u and v <= q.lo:
                return [Finite((x,)) for x in (u, v) if x in (p.hi, q.lo)]
        inside = [p for p in pieces if p.lo <= u and v <= p.hi]
        if not inside:
            return None
        box = inside[0]


def reference_block_intersect(b1, b2):
    """A block pair's intersection with every finite point tested."""
    if b1 == b2:
        return [b1]
    if b1.sup < b2.inf or b2.sup < b1.inf:
        return []
    if b1.sup == b2.inf or b2.sup == b1.inf:
        pt = b2.inf if b1.sup == b2.inf else b1.inf
        try:
            return [Finite((pt,))] if block_contains(b1, pt) and block_contains(b2, pt) else []
        except MembershipUndecided as exc:
            raise IntersectionNotRepresentable(str(exc))
    if isinstance(b2, Finite) or (isinstance(b2, Interval) and not isinstance(b1, Finite)):
        b1, b2 = b2, b1
    if isinstance(b1, Finite):
        try:
            pts = tuple(p for p in b1.points if block_contains(b2, p))
        except MembershipUndecided as exc:
            raise IntersectionNotRepresentable(str(exc))
        return [Finite(pts)] if pts else []
    if isinstance(b1, Interval):
        try:
            return [c for b in cut_block(b2, b1.lo, keep_low=False)
                    for c in cut_block(b, b1.hi, keep_low=True)]
        except CutNotRepresentable as exc:
            raise IntersectionNotRepresentable(str(exc))
    u, v = max(b1.inf, b2.inf), min(b1.sup, b2.sup)
    for a, c in ((b1, b2), (b2, b1)):
        if isinstance(a, Cantor):
            parts = reference_cantor_gap_points(a, u, v)
            if parts is None:
                continue
        else:
            parts = [d for b in cut_block(a, u, keep_low=False)
                     for d in cut_block(b, v, keep_low=True)]
        if all(isinstance(d, Finite) for d in parts):
            try:
                hits = tuple(p for d in parts for p in d.points if block_contains(c, p))
            except MembershipUndecided as exc:
                raise IntersectionNotRepresentable(str(exc))
            return [Finite(hits)] if hits else []
    if isinstance(b1, GeomSeq) and isinstance(b2, GeomSeq):
        if _geom_absorbs(b1, b2):
            return [b2]
        if _geom_absorbs(b2, b1):
            return [b1]
    raise IntersectionNotRepresentable("interleaved accumulation")


def reference_intersect(h1, h2):
    return normalize_blocks(b for b1 in h1.blocks for b2 in h2.blocks
                            for b in reference_block_intersect(b1, b2))


def reference_disjoint(h1, h2):
    # block pairs in intersect's order: the first that meets answers
    return not any(reference_block_intersect(b1, b2) for b1 in h1.blocks for b2 in h2.blocks)


def _outcome(f, h1, h2):
    try:
        return f(h1, h2)
    except IntersectionNotRepresentable:
        return "undecidable"


def test_intersect_and_disjoint_match_every_point_reference(corpora):
    outcomes = Counter()
    for (seed, profile), hs in corpora.items():
        others = corpora[seed, PROFILES[(PROFILES.index(profile) + 2) % len(PROFILES)]]
        for i, h in enumerate(hs):
            for x in SHIFTS:
                for g in (h, hs[(i * 7 + 3) % len(hs)], others[i % len(others)]):
                    g = translate_set(g, x)
                    assert _outcome(intersect, h, g) == _outcome(reference_intersect, h, g)
                    want = _outcome(reference_disjoint, h, g)
                    assert _outcome(disjoint, h, g) == want, (h, g)
                    outcomes[want] += 1
    # disjoint pairs, meeting pairs, and undecidable pairs all occur
    assert outcomes[True] and outcomes[False] and outcomes["undecidable"]


def test_common_points_of_two_sequences_come_sorted():
    # seq(0,1,1/2) lists its points in [1/16, 1/2] downwards; the common
    # ones, 1/2 and 1/8, make one sorted Finite block
    a, c = GeomSeq(Q(0), Q(1), Q(1, 2)), GeomSeq(Q(1, 16), Q(49, 16), Q(1, 7))
    for h1, h2 in ((a, c), (c, a)):
        h1, h2 = normalize_blocks([h1]), normalize_blocks([h2])
        assert intersect(h1, h2).blocks == (Finite((Q(1, 8), Q(1, 2))),)
        assert intersect(h1, h2) == reference_intersect(h1, h2)


# ---------------------------------------------------------------------------
# levels and smallness


def reference_top_level(h):
    """(level, the level-th derived set) by a walk of built derived sets: the
    level is infinite once a derived set is its own (perfect parts remain)."""
    cur, n = h, 0
    while True:
        nxt = derived_set(cur)
        if nxt.is_empty:
            return n, cur
        if nxt == cur:
            return math.inf, None
        cur, n = nxt, n + 1


def test_top_level_is_the_derived_set_walk(corpora):
    checked = 0
    for i, h in enumerate(_translated_unions(corpora)):
        if i % 3:
            continue
        want = reference_top_level(h)
        assert top_level(h) == want and level(h) == want[0], h
        if want[0] < math.inf:
            assert iso_growth(h)[0] == want[0], h
        checked += 1
    assert checked > 4000


def reference_small(v, h, kind):
    """The per-mean rules of smallness that the order rule replaced, for an H
    in the domain: no V under arith, the finite ones under lis, a lower level
    under acc, a lower dimension under avg, a lower count degree under iso."""
    if v.is_empty:
        return Answer.YES
    if kind is MeanKind.ARITH:
        small = False
    elif kind is MeanKind.LIS:
        small = v.is_finite
    elif kind is MeanKind.AVG:
        small = compare_dims(dimension_of(v), dimension_of(h)) < 0
    elif kind is MeanKind.ISO and any(isinstance(b, (Interval, Cantor)) for b in v.blocks):
        small = False  # the isolated points of a union with V are not dense
    else:  # the level under acc, the count degree under iso
        small = reference_top_level(v)[0] < reference_top_level(h)[0]
    return Answer.YES if small else Answer.NO


def test_order_rule_matches_the_per_mean_rules(corpora):
    checked = 0
    for seed in (1, 2, 3):
        sets = [h for profile in PROFILES for h in corpora[seed, profile][::2]]
        for kind in MeanKind:
            hosts = [h for h in sets if mean_of(h, kind).is_defined]
            for i, h in enumerate(hosts):
                for v in sets[i % 4::4]:
                    assert is_small_for(v, h, kind).answer is reference_small(v, h, kind), (
                        kind, v, h)
                    checked += 1
    assert checked > 10000



# ---------------------------------------------------------------------------
# k-bounds


def reference_derived_sets(h):
    """Yield h, h', h'', ... until the next derived set is empty or the same.

    Each step lowers every sum-of-powers level by one and drops the finite
    points outside the perfect parts, so a set of level k without interval
    or Cantor parts yields k + 1 sets, and one with them at most one more.
    """
    cur = h
    while True:
        yield cur
        nxt = derived_set(cur)
        if nxt.is_empty or nxt == cur:
            return
        cur = nxt


def reference_cut_candidates(h) -> list:
    """The ends, finite points and anchors of every block of every derived set."""
    cands = set()
    for cur in reference_derived_sets(h):
        for b in cur.blocks:
            cands.add(b.inf)
            cands.add(b.sup)
            if isinstance(b, Finite):
                cands.update(b.points)
            elif isinstance(b, PowerSums):
                cands.add(b.anchor)
    return sorted(cands)


# the scan's bounds, and the cuts it skipped with the reason
ScanBounds = namedtuple("ScanBounds", "k_liminf k_limsup skipped")


def reference_k_bounds(h, kind, cfg=DEFAULT_CONFIG) -> ScanBounds:
    """The k-bounds by a scan of cuts, as they were first computed.

    The mean of a cut set is piecewise constant-or-affine between block
    parameters, so a lattice of the parameters plus midpoints captures every
    regime; a midpoint witnessing an unchanged open interval pushes the
    bound to the base candidate beyond it.  Cuts are compared with the
    mean by means.order, so approximate means within 2*tol pass as equal.
    """
    base = reference_cut_candidates(h)
    reference = mean_of(h, kind, cfg)
    if not reference.is_defined:
        raise DomainViolation(f"mean is undefined: {reference.reason}")
    lattice = []
    for i, x in enumerate(base):
        lattice.append((x, True))
        if i + 1 < len(base):
            lattice.append(((x + base[i + 1]) / 2, False))
    skipped = []

    def equal_after(x, keep_low: bool):
        try:
            piece = cut_set(h, x, keep_low)
        except CutNotRepresentable:
            skipped.append(f"cut at {x} not representable")
            return None
        if piece.is_empty:
            skipped.append(f"cut at {x} empties the set")
            return None
        if piece == h:
            piece = h  # a cut that keeps all of h reuses h's mean
        val = mean_of(piece, kind, cfg)
        if not val.is_defined:
            skipped.append(f"cut at {x} leaves the domain: {val.reason}")
            return None
        return order(reference, val, cfg.tol) == 0

    def scan(path, keep_low: bool, side: str) -> MeanValue:
        # walk the lattice along this path while the cut keeps the mean; a
        # matching midpoint carries the bound on to the next base candidate
        last = None
        for i, (x, is_base) in enumerate(path):
            res = equal_after(x, keep_low)
            if res is None:
                continue
            if not res:
                break
            last = x if is_base else next(bx for bx, bb in path[i + 1:] if bb)
        if last is None:
            return MeanValue.undefined(f"no representable unchanged {side} cut")
        return MeanValue.exact(last)

    # liminf scans upward over K(H^{+x}), limsup downward over K(H^{-x})
    return ScanBounds(scan(lattice, False, "lower"), scan(lattice[::-1], True, "upper"),
                      tuple(skipped))


def _k_bounds_outcome(f, h, kind):
    try:
        kb = f(h, kind)
    except SetMeansError as exc:
        return type(exc)
    return kb.k_liminf, kb.k_limsup


def _unions_and_cuts(corpora):
    """About 200 unions of seed-101 sets with translates of one another, and
    cuts of them at a block end or between two."""
    rng = random.Random(20)
    hs = [h for profile in PROFILES for h in corpora[101, profile]]
    for _ in range(100):
        h, g = rng.choice(hs), rng.choice(hs)
        u = union_sets(h, translate_set(g, rng.choice(SHIFTS)))
        yield u
        ends = sorted({e for b in u.blocks for e in (b.inf, b.sup)})
        i = rng.randrange(len(ends))
        at = ends[i] if i + 1 == len(ends) or rng.random() < 0.5 else (ends[i] + ends[i + 1]) / 2
        try:
            yield cut_set(u, at, rng.random() < 0.5)
        except CutNotRepresentable:
            continue


def test_k_bounds_is_the_scan_of_cuts(corpora):
    sets = [h for seed in (1, 2, 3) for profile in PROFILES for h in corpora[seed, profile]]
    sets += [h for h in _unions_and_cuts(corpora) if not h.is_empty]
    outcomes = Counter()
    for h in sets:
        for kind in MeanKind:
            want = _k_bounds_outcome(reference_k_bounds, h, kind)
            assert _k_bounds_outcome(k_bounds, h, kind) == want, (kind, h)
            outcomes[isinstance(want, tuple)] += 1
    assert outcomes[True] > 1500 and outcomes[False] > 1500, outcomes


def test_k_bounds_differs_from_the_scan_only_past_its_slack():
    # the one known difference: the scan compares cuts within 2*tol, so on
    # the set of seq(0,-1,1/2) U seq(1/1000,1,1/3) scaled by 10**-9 cuts that
    # move the iso mean pass as unchanged, and its liminf lands above its
    # limsup; the closed form answers the unscaled (0, 1/1000) scaled
    n = 10**9
    h = normalize(parse(f"seq(0,-1/{n},1/2) U seq(1/{n * 1000},1/{n},1/3)"))
    kb = k_bounds(h, MeanKind.ISO)
    assert (kb.k_liminf, kb.k_limsup) == (MeanValue.exact(0), MeanValue.exact(Q(1, n * 1000)))
    ref = reference_k_bounds(h, MeanKind.ISO)
    assert (ref.k_liminf.value, ref.k_limsup.value) == (Q(1003, 3 * n * 1000), Q(-1, 2 * n))
    unscaled = k_bounds(normalize(parse("seq(0,-1,1/2) U seq(1/1000,1,1/3)")), MeanKind.ISO)
    assert (unscaled.k_liminf.value, unscaled.k_limsup.value) == (0, Q(1, 1000))


def reference_defect(h, kind):
    """(K(H-) + K(H+))/2 - K(H) from the means of the halves at k, exact or None."""
    k = mean_of(h, kind)
    if not k.is_exact:
        return None
    k1, k2 = (mean_of(cut_set(h, k.value, keep_low=side), kind) for side in (True, False))
    return (k1.value + k2.value) / 2 - k.value if k1.is_exact and k2.is_exact else None


def test_round_is_whether_the_exact_defect_is_zero(corpora):
    # both routes decide from the halves' weights; the halves' own means
    # give the defect, and where it is exact the set is round iff it is 0
    exact = Counter()
    for seed in (1, 2, 3):
        for profile in PROFILES:
            for h in corpora[seed, profile]:
                for kind in MeanKind:
                    try:
                        rep, wit = round_pass(h, kind)
                    except SetMeansError:
                        continue
                    defect = reference_defect(h, kind)
                    if defect is None:
                        continue
                    assert rep.defect == MeanValue.exact(defect), (kind, h)
                    want = Answer.YES if defect == 0 else Answer.NO
                    assert (rep.verdict.answer, wit.answer) == (want, want), (kind, h)
                    exact[want] += 1
    assert sum(exact.values()) >= 1427 and exact[Answer.YES] and exact[Answer.NO], exact
