"""Symbolic set expressions and their normalized block form.

``SetExpr`` is the constructor tree (union, translate, lower/upper cut over
block leaves); ``normalize`` evaluates it to a ``BlockSet``, the canonical
finite union of primitive blocks.  All operations are pure and exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Union as TUnion

from .blocks import (
    Block,
    Cantor,
    Finite,
    GeomSeq,
    Interval,
    PowerSums,
    Q,
    Tower,
    _log_ratio,
    as_q,
    block_contains,
    block_dist_at_least,
    block_min_dist,
    block_sort_key,
    cut_block,
    is_infinite_block,
    power_block,
    tower_outer_points,
    tower_top_count,
)
from .errors import (
    CutNotRepresentable,
    EmptyResult,
    IntersectionNotRepresentable,
    MembershipUndecided,
    ValidationError,
)

INFINITE_LEVEL = math.inf
_UNSET = object()  # what BlockSet.memo has not kept


@dataclass(frozen=True)
class _Expr:
    #: the canonical blocks, once normalize has evaluated the expression;
    #: outside init, equality, hashing and repr, like BlockSet._derived
    _blocks: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Leaf(_Expr):
    block: Block


@dataclass(frozen=True)
class Union(_Expr):
    parts: tuple["SetExpr", ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Translate(_Expr):
    child: "SetExpr"
    offset: Q

    def __post_init__(self):
        object.__setattr__(self, "offset", as_q(self.offset))


@dataclass(frozen=True)
class CutBelow(_Expr):
    """The part of the child at or below the cut: H \\cap (-inf, at]."""

    child: "SetExpr"
    at: Q

    def __post_init__(self):
        object.__setattr__(self, "at", as_q(self.at))


@dataclass(frozen=True)
class CutAbove(_Expr):
    """The part of the child at or above the cut: H \\cap [at, +inf)."""

    child: "SetExpr"
    at: Q

    def __post_init__(self):
        object.__setattr__(self, "at", as_q(self.at))


SetExpr = TUnion[Leaf, Union, Translate, CutBelow, CutAbove]


@dataclass(frozen=True)
class BlockSet:
    """A bounded set as a finite union of blocks.

    The sets that normalize, normalize_blocks and the set operations return
    are canonical, which means:

    * at most one Finite block, and it comes first;
    * the other blocks are strictly increasing by block_sort_key, so no two
      are equal: sequences (a level-1 tower is held as a GeomSeq), towers,
      intervals, then Cantor blocks;
    * merged intervals neither overlap nor touch;
    * no block lies inside an interval's box;
    * no sequence's points are a subset of another sequence's;
    * no finite point lies in another block, unless its membership is
      undecided (MembershipUndecided).
    """

    blocks: tuple[Block, ...]
    #: what is derived from the set, by key: see memo
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    def memo(self, key, compute):
        """compute(), computed on first use for this key and kept for the
        life of the object.  The set is immutable, so what is derived from it
        is too: its derived set, its means and weights, its bounds, its
        isolation profile."""
        value = self._derived.get(key, _UNSET)
        if value is _UNSET:
            value = self._derived[key] = compute()
        return value

    @property
    def is_empty(self) -> bool:
        return not self.blocks

    @property
    def is_finite(self) -> bool:
        return all(not is_infinite_block(b) for b in self.blocks)

    def finite_points(self) -> tuple[Q, ...]:
        pts: list[Q] = []
        for b in self.blocks:
            if isinstance(b, Finite):
                pts.extend(b.points)
        return tuple(sorted(pts))

    def to_expr(self) -> SetExpr:
        if len(self.blocks) == 1:
            return Leaf(self.blocks[0])
        return Union(tuple(Leaf(b) for b in self.blocks))


EMPTY = BlockSet(())


def _eval_expr(e: SetExpr) -> list[Block]:
    if isinstance(e, Leaf):
        return [e.block]
    if isinstance(e, Union):
        out: list[Block] = []
        for part in e.parts:
            out.extend(_eval_expr(part))
        return out
    if isinstance(e, Translate):
        return [b.translate(e.offset) for b in _eval_expr(e.child)]
    if isinstance(e, CutBelow):
        out = []
        for b in _eval_expr(e.child):
            out.extend(cut_block(b, e.at, keep_low=True))
        return out
    if isinstance(e, CutAbove):
        out = []
        for b in _eval_expr(e.child):
            out.extend(cut_block(b, e.at, keep_low=False))
        return out
    raise TypeError(f"not a SetExpr: {e!r}")


def _geom_absorbs(a: GeomSeq, b: GeomSeq):
    """True when b's points are a subset of a's (same anchor, power-related).

    With b.ratio == a.ratio**p (p > 0) and b.scale == a.scale * a.ratio**j,
    b's points sit at a's exponents j + p*n, n >= 1: all are a's points
    exactly when p and j are integers and j + p >= 1.
    """
    if a.anchor != b.anchor:
        return False
    if (a.scale > 0) != (b.scale > 0):
        return False
    p = _log_ratio(b.ratio, a.ratio)
    if p is None or p.denominator != 1:
        return False
    j = _log_ratio(b.scale / a.scale, a.ratio)
    return j is not None and j.denominator == 1 and j + p >= 1


def normalize_blocks(blocks) -> BlockSet:
    """The canonical BlockSet of a block collection, empty or not: one sort,
    then sweeps.

    The blocks other than Finite are sorted once by block_sort_key, so equal
    blocks are neighbours and each kind comes out in order; the sort runs
    only for two such blocks or more, since the key reads each block's inf
    and sup and one block is in order as it stands.  Intervals are
    merged as they come, and a block is tested only against the merged
    interval that could hold its box and, for finite points, only against
    the points inside its box.  No Fraction is hashed and nothing is sorted
    again.
    """
    finites: list[Finite] = []
    others: list[Block] = []
    for b in blocks:
        if isinstance(b, Finite):
            finites.append(b)
        elif isinstance(b, Tower) and b.level == 1:
            others.append(GeomSeq(b.anchor, b.scale, b.ratio))
        else:
            others.append(b)
    if len(finites) + len(others) <= 1:
        return BlockSet((*finites, *others))  # one block is canonical as it stands
    if len(others) > 1:
        others.sort(key=block_sort_key)

    seqs: list[GeomSeq] = []
    towers: list[Tower] = []
    merged: list[Interval] = []  # overlapping or touching intervals become one
    cantors: list[Cantor] = []
    prev = None
    for b in others:
        if b == prev:
            continue
        prev = b
        if isinstance(b, Interval):
            if merged and b.lo <= merged[-1].hi:
                if b.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, b.hi)
            else:
                merged.append(b)
        elif isinstance(b, GeomSeq):
            seqs.append(b)
        elif isinstance(b, Tower):
            towers.append(b)
        else:
            cantors.append(b)

    if merged:
        # blocks wholly inside an interval are absorbed by it; the merged
        # intervals are disjoint, so only the last one starting at or below
        # a block's inf can hold it
        los = [iv.lo for iv in merged]

        def free(b: Block) -> bool:
            i = bisect_right(los, b.inf) - 1
            return i < 0 or merged[i].hi < b.sup

        seqs = [b for b in seqs if free(b)]
        towers = [b for b in towers if free(b)]
        cantors = [b for b in cantors if free(b)]

    if len(seqs) > 1:
        # a sequence whose points lie in another's is dropped; absorption is
        # strict inclusion, so one absorbed by a dropped sequence is also
        # absorbed by that sequence's own, kept, absorber
        seqs = [b for b in seqs if not any(
            a is not b and a.anchor == b.anchor and _geom_absorbs(a, b) for a in seqs)]

    rest = [*seqs, *towers, *merged, *cantors]
    if not finites:
        return BlockSet(tuple(rest))
    if len(finites) == 1:
        pts = finites[0].points
    else:
        pts = [p for f in finites for p in f.points]
        pts.sort()
        pts = [p for p, q in zip(pts, pts[1:]) if p != q] + pts[-1:]

    # finite points lying in another block are removed; an undecided
    # membership keeps the point, which is harmless
    gone: set[int] = set()
    first, last = pts[0], pts[-1]
    for b in rest:
        if b.sup < first or last < b.inf:
            continue
        lo = bisect_left(pts, b.inf)
        hi = bisect_right(pts, b.sup, lo)
        if isinstance(b, Interval):
            gone.update(range(lo, hi))
            continue
        for i in range(lo, hi):
            if i not in gone:
                try:
                    if block_contains(b, pts[i]):
                        gone.add(i)
                except MembershipUndecided:
                    pass
    if gone or len(finites) > 1:
        # from a list: tuple() of a generator over-allocates, and kept
        # sweep-laws' peak memory about 0.5 MB higher
        pts = tuple([p for i, p in enumerate(pts) if i not in gone])
        finites = [Finite.of_sorted(pts)] if pts else []
    return BlockSet((*finites, *rest))


def normalize(e: SetExpr) -> BlockSet:
    """Evaluate an expression to its canonical BlockSet.

    An expression's canonical blocks are computed once per expression object
    and kept with it.  Each call returns a fresh set over them, so what a
    set keeps (BlockSet.memo) does not outlive its caller.  The CLI keeps
    the parsed expression of each operand text (cli._norm), so a repeated
    text costs one lookup here and one BlockSet.

    Raises EmptyResult when the expression denotes the empty set and
    CutNotRepresentable when a cut lands inside a Cantor block at a point
    that is neither a gap point nor an attained endpoint; an expression that
    raises keeps nothing, and raises again on the next call.
    """
    blocks = getattr(e, "_blocks", None)  # None too for what _eval_expr rejects
    if blocks is not None:
        return BlockSet(blocks)
    bs = normalize_blocks(_eval_expr(e))
    if bs.is_empty:
        raise EmptyResult("expression denotes the empty set")
    object.__setattr__(e, "_blocks", bs.blocks)
    return bs


def translate_set(h: BlockSet, x: Q) -> BlockSet:
    """h + x, block by block: h is canonical and so is the result, since a
    translation keeps block_sort_key's order and every canonical property.

    Each block is moved without being checked again (its translate), but
    nothing kept with h (BlockSet.memo) is carried, so every mean of h + x is
    computed afresh.  ValidationError when x is not rational.
    """
    x = as_q(x)
    return BlockSet(tuple(b.translate(x) for b in h.blocks))


def reflect_set(h: BlockSet, c: Q) -> BlockSet:
    return normalize_blocks(b.reflect(c) for b in h.blocks)


def union_sets(*hs: BlockSet) -> BlockSet:
    out: list[Block] = []
    for h in hs:
        out.extend(h.blocks)
    return normalize_blocks(out)


def cut_set(h: BlockSet, y: Q, keep_low: bool) -> BlockSet:
    out: list[Block] = []
    for b in h.blocks:
        out.extend(cut_block(b, y, keep_low))
    return normalize_blocks(out)


def derived_set(h: BlockSet) -> BlockSet:
    """The set of accumulation points, block by block; computed once per set
    object (BlockSet.memo), so the isolation profile and the iso witnesses
    of one set share it.

    A level-k tower contributes the (k-1)-tower plus the anchor (a limit of
    the j=1 points), so a sequence, the level-1 tower, gives its anchor alone;
    intervals and Cantor blocks are perfect and contribute themselves.
    """
    return h.memo("derived", lambda: _derive(h))


def _derive(h: BlockSet) -> BlockSet:
    out: list[Block] = []
    for b in h.blocks:
        if isinstance(b, Finite):
            continue
        if isinstance(b, PowerSums):
            out.append(Finite.of_sorted((b.anchor,)))
            if b.level >= 2:
                out.append(power_block(b.level - 1, b.anchor, b.scale, b.ratio))
        else:
            out.append(b)
    return normalize_blocks(out)


def level(h: BlockSet):
    """Cantor-Bendixson style rank: least n with the (n+1)-st derived empty.

    (A u B)' = A' u B', so it is the largest block level, read without a
    derived set: 0 for Finite, b.level for a sum-of-powers block, and
    math.inf for an interval or a Cantor block, its own derived set.
    """
    if h.is_empty:
        raise EmptyResult("level of the empty set is undefined")
    return max(b.level if isinstance(b, PowerSums) else 0 if isinstance(b, Finite)
               else INFINITE_LEVEL for b in h.blocks)


def top_level(h: BlockSet):
    """``(level(h), the level-th derived set)``: h itself at level 0, None at
    an infinite level, else the anchors of the top-level blocks (a level-k
    block's k-th derived set is its anchor, and a lower block's is empty)."""
    lev = level(h)
    if lev == 0:
        return 0, h
    if lev == INFINITE_LEVEL:
        return lev, None
    anchors = [b.anchor for b in h.blocks if isinstance(b, PowerSums) and b.level == lev]
    return lev, BlockSet((Finite(anchors),))


@dataclass(frozen=True)
class Bounds:
    inf: Q
    sup: Q
    acc_inf: Optional[Q]
    acc_sup: Optional[Q]


def bounds(h: BlockSet) -> Bounds:
    """The hulls of h and of its derived set h' (acc_inf, acc_sup; None when
    h' is empty), kept with the set (BlockSet.memo).

    h' is the union of its blocks' derived sets, so its hull is read from
    each block other than Finite: a sum-of-powers block gives its anchor and
    the far end of its (k-1)-tower, anchor + scale * S_(k-1) (its acc_end,
    the anchor again for a sequence), and an interval or a Cantor block its
    own ends.  No derived set is built.
    """
    if h.is_empty:
        raise EmptyResult("bounds of the empty set are undefined")
    return h.memo("bounds", lambda: _bounds(h.blocks))


def _bounds(blocks) -> Bounds:
    acc = []
    for b in blocks:
        if isinstance(b, PowerSums):
            acc.extend((b.anchor, b.acc_end) if b.scale > 0 else (b.acc_end, b.anchor))
        elif not isinstance(b, Finite):
            acc.extend((b.inf, b.sup))
    if len(blocks) == 1:  # a lone block as it stands: its ends come in order
        return Bounds(blocks[0].inf, blocks[0].sup, *(acc or (None, None)))
    return Bounds(min(b.inf for b in blocks), max(b.sup for b in blocks),
                  min(acc, default=None), max(acc, default=None))


def diameter(h: BlockSet) -> Q:
    bd = bounds(h)
    return bd.sup - bd.inf


def contains(h: BlockSet, x: Q) -> bool:
    x = as_q(x)
    for b in h.blocks:
        if b.inf <= x <= b.sup and block_contains(b, x):
            return True
    return False


class IsolationProfile:
    """Points with their exact distances to an accumulation set acc, and the
    count of those at distance at least eps.

    A point's distance to the blocks of acc other than Cantor ones (only
    sets outside the ISO domain have those; they are checked at each eps) is
    measured once, and kept in a sorted (distance, point) list to bisect:
    one for the finite points, one per tower.  Towers come as (sum-of-powers
    block, apart) pairs (_apart).  At eps <= apart, or at every eps when
    apart is None, a tower's count is C(K, level) (tower_top_count), and no
    point is made: a top point's last term times |scale| is its distance to
    the block's own accumulation set, and the rest of acc is no nearer.
    Otherwise the tower is walked, its walk kept, so a smaller eps resumes
    below the old floor; points with a last term below eps lie within eps of
    their shorter sums, in acc.
    """

    def __init__(self, acc: BlockSet, points, towers=()):
        self.near = [b for b in acc.blocks if not isinstance(b, Cantor)]
        self.cantors = [b for b in acc.blocks if isinstance(b, Cantor)]
        self.seen: set[Q] = set()
        self.finite = self._measured(points)
        self.towers = [(b, apart, [], []) for b, apart in towers]  # walk, list

    def _measured(self, points) -> list:
        """(distance to acc or math.inf, x), sorted, for the new points."""
        out = []
        for x in points:
            if x not in self.seen:
                self.seen.add(x)
                out.append((min((block_min_dist(b, x) for b in self.near), default=math.inf), x))
        out.sort()
        return out

    def _walked(self, tower, eps: Q) -> list:
        """The tower's list, walked down to eps."""
        b, _, walk, pairs = tower
        new = self._measured(tower_outer_points(b, eps, walk))
        if new:
            pairs.extend(new)
            pairs.sort()  # two sorted runs: a merge
        return pairs

    def outside(self, eps: Q) -> list[Q]:
        """The points at distance at least eps from acc, in order."""
        far = []
        for pairs in (self.finite, *(self._walked(t, eps) for t in self.towers)):
            far.extend(x for _, x in pairs[bisect_left(pairs, eps, key=itemgetter(0)):])
        if self.cantors:
            far = [x for x in far if all(block_dist_at_least(b, x, eps) for b in self.cantors)]
        return sorted(far)

    def count(self, eps: Q) -> int:
        """len(outside(eps)), without a list when acc has no Cantor block."""
        if self.cantors:
            return len(self.outside(eps))
        n = len(self.finite) - bisect_left(self.finite, eps, key=itemgetter(0))
        for t in self.towers:
            if t[1] is None or eps <= t[1]:
                n += tower_top_count(t[0], eps)
            else:
                pairs = self._walked(t, eps)
                n += len(pairs) - bisect_left(pairs, eps, key=itemgetter(0))
        return n


def _apart(h: BlockSet, i: int):
    """The largest eps at which h.blocks[i], a sum-of-powers block b, is
    apart, 0, or None when b is apart at every eps.  b is apart at eps when
    no finite point of h lies in its hull but at its anchor, and every other
    non-Finite block of h lies on the anchor's side of b's anchor or at hull
    distance at least eps > 0."""
    b, pts = h.blocks[i], h.finite_points()
    a, lo, hi = b.anchor, b.inf, b.sup
    if any(x != a for x in pts[bisect_left(pts, lo):bisect_right(pts, hi)]):
        return 0
    gaps = [max(c.inf - hi, lo - c.sup) for j, c in enumerate(h.blocks) if not (
        j == i or isinstance(c, Finite) or (c.sup <= a if b.scale > 0 else c.inf >= a))]
    return max(0, min(gaps)) if gaps else None


def _isolation(h: BlockSet) -> IsolationProfile:
    """h's isolation profile, computed once per set object."""
    return h.memo("isolation", lambda: IsolationProfile(derived_set(h), h.finite_points(), [
        (b, _apart(h, i)) for i, b in enumerate(h.blocks) if isinstance(b, PowerSums)]))


def _positive(eps) -> Q:
    eps = as_q(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    return eps


def isolated_outside(h: BlockSet, eps: Q) -> list[Q]:
    """H minus the open eps-neighborhood of H', enumerated exactly, in order.

    A point survives iff its distance to every accumulation point is >= eps.
    Interval and Cantor blocks contribute no candidates (all their points
    accumulate); geometric and tower blocks are cut off by the exact bound
    that their own anchor distance imposes.  The candidates and their
    distances to H' are kept with the set (IsolationProfile), so a smaller
    eps only measures the points it adds, and a larger one measures none.
    """
    return _isolation(h).outside(_positive(eps))


def isolated_count(h: BlockSet, eps: Q) -> int:
    """len(isolated_outside(h, eps)), from h's isolation profile: by closed
    form for each tower apart at eps (_apart), by bisection for the rest."""
    return _isolation(h).count(_positive(eps))


def _clip(b: Block, lo: Q, hi: Q) -> list[Block]:
    """b's part in [lo, hi], from two cuts."""
    return [c for part in cut_block(b, lo, keep_low=False)
            for c in cut_block(part, hi, keep_low=True)]


def _block_intersect(b1: Block, b2: Block) -> list[Block]:
    """b1 and b2's common points as a list of blocks, for intersect and
    disjoint.

    The boxes are tested first: apart they share nothing, and touching only
    their common end.  A Finite block tests only its points inside the other
    block's box, found by bisection.  An Interval clips the other (_clip), and
    so does a sum-of-powers or Cantor block with finitely many points in the
    common box (a Cantor block's lie at the ends of one gap, so a box wider
    than its top gap is not clipped), listing them for the other to test; a
    clip that is not representable tries the other order.  IntersectionNotRepresentable when the pair is outside the
    decidable fragment; a Cantor membership, or a cut by an Interval, that is
    not decided raises its own error, which _block_intersections reports.
    """
    if b1.sup < b2.inf or b2.sup < b1.inf:
        return []
    if b1 == b2:
        return [b1]
    if b1.sup == b2.inf or b2.sup == b1.inf:
        pt = b2.inf if b1.sup == b2.inf else b1.inf
        if block_contains(b1, pt) and block_contains(b2, pt):
            return [Finite.of_sorted((pt,))]
        return []
    if isinstance(b2, Finite) or (isinstance(b2, Interval) and not isinstance(b1, Finite)):
        b1, b2 = b2, b1
    if isinstance(b1, Finite):
        pts = b1.points
        lo = bisect_left(pts, b2.inf)
        pts = pts[lo:bisect_right(pts, b2.sup, lo)]
        if not isinstance(b2, Interval):
            pts = tuple([p for p in pts if block_contains(b2, p)])
        return [Finite.of_sorted(pts)] if pts else []
    if isinstance(b1, Interval):
        # exact for everything but interior non-gap cuts of a Cantor block
        return _clip(b2, b1.lo, b1.hi)
    # both are infinite non-interval blocks with overlapping boxes
    u, v = max(b1.inf, b2.inf), min(b1.sup, b2.sup)
    for a, c in ((b1, b2), (b2, b1)):
        # no gap of a Cantor block is wider than its top one, so a wider box
        # holds a point of the block inside it, and with it infinitely many
        if isinstance(a, Cantor) and v - u > a.gap_step - a.ratio * (a.hi - a.lo):
            continue
        try:
            parts = _clip(a, u, v)
        except CutNotRepresentable:  # a Cantor cut at a non-gap point
            continue
        if all(isinstance(part, Finite) for part in parts):
            hits = sorted(p for part in parts for p in part.points if block_contains(c, p))
            return [Finite.of_sorted(tuple(hits))] if hits else []
    if isinstance(b1, GeomSeq) and isinstance(b2, GeomSeq):
        if _geom_absorbs(b1, b2):
            return [b2]
        if _geom_absorbs(b2, b1):
            return [b1]
    raise IntersectionNotRepresentable(
        f"intersection of {type(b1).__name__} and {type(b2).__name__} blocks "
        "with interleaved accumulation is outside the decidable fragment"
    )


def _block_intersections(h1: BlockSet, h2: BlockSet):
    """Yield the intersection of each pair of blocks, h1's outer, as a list;
    a pair whose Cantor membership or cut is not decided raises
    IntersectionNotRepresentable."""
    try:
        for b1 in h1.blocks:
            for b2 in h2.blocks:
                yield _block_intersect(b1, b2)
    except (MembershipUndecided, CutNotRepresentable) as exc:
        raise IntersectionNotRepresentable(str(exc))


def intersect(h1: BlockSet, h2: BlockSet) -> BlockSet:
    """Exact intersection on the decidable fragment.

    Raises IntersectionNotRepresentable for undecidable block pairs, e.g.
    two overlapping Cantor blocks with different parameters.
    """
    return normalize_blocks([b for part in _block_intersections(h1, h2) for b in part])


def disjoint(h1: BlockSet, h2: BlockSet) -> bool:
    """True exactly when intersect(h1, h2) returns the empty set.

    Nothing is built: the block pairs are met in intersect's order, and the
    first pair that meets answers False.  An undecidable pair met before
    that raises IntersectionNotRepresentable, as intersect does.
    """
    return not any(_block_intersections(h1, h2))


def disjoint_union(h1: BlockSet, h2: BlockSet) -> Optional[BlockSet]:
    """union_sets(h1, h2) when disjoint(h1, h2), else None; it raises where
    disjoint raises.  No two blocks of disjoint canonical sets overlap,
    touch or hold one another, so their union is canonical once the finite
    points and the other blocks are each merged: nothing is tested again."""
    if not disjoint(h1, h2):
        return None
    f1, f2 = (h.blocks[0] if h.blocks and isinstance(h.blocks[0], Finite) else None
              for h in (h1, h2))
    o1, o2 = h1.blocks[f1 is not None:], h2.blocks[f2 is not None:]
    others = sorted(o1 + o2, key=block_sort_key) if o1 and o2 else o1 + o2
    if f1 and f2:
        f1 = Finite.of_sorted(tuple(sorted(f1.points + f2.points)))
    return BlockSet((f1 or f2, *others) if f1 or f2 else others)
