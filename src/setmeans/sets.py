"""Symbolic set expressions and their normalized block form.

``SetExpr`` is the constructor tree (union, translate, lower/upper cut over
block leaves); ``normalize`` evaluates it to a ``BlockSet``, the canonical
finite union of primitive blocks.  All operations are pure and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    block_sort_key,
    cut_block,
    is_infinite_block,
    points_in_box,
    power_block,
    tower_outer_points,
)
from .errors import (
    CutNotRepresentable,
    EmptyResult,
    IntersectionNotRepresentable,
    MembershipUndecided,
)

INFINITE_LEVEL = math.inf


@dataclass(frozen=True)
class Leaf:
    block: Block


@dataclass(frozen=True)
class Union:
    parts: tuple["SetExpr", ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Translate:
    child: "SetExpr"
    offset: Q

    def __post_init__(self):
        object.__setattr__(self, "offset", as_q(self.offset))


@dataclass(frozen=True)
class CutBelow:
    """The part of the child at or below the cut: H \\cap (-inf, at]."""

    child: "SetExpr"
    at: Q

    def __post_init__(self):
        object.__setattr__(self, "at", as_q(self.at))


@dataclass(frozen=True)
class CutAbove:
    """The part of the child at or above the cut: H \\cap [at, +inf)."""

    child: "SetExpr"
    at: Q

    def __post_init__(self):
        object.__setattr__(self, "at", as_q(self.at))


SetExpr = TUnion[Leaf, Union, Translate, CutBelow, CutAbove]


@dataclass(frozen=True)
class BlockSet:
    blocks: tuple[Block, ...]
    provenance: Optional[SetExpr] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

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


def _canonical(blocks: list[Block]) -> BlockSet:
    finite_pts: set[Q] = set()
    others: list[Block] = []
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
    kept: list[Block] = []
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


def normalize_blocks(blocks) -> BlockSet:
    """Canonicalize a plain block collection; empty input is allowed."""
    return _canonical(list(blocks))


def normalize(e: SetExpr) -> BlockSet:
    """Evaluate an expression to its canonical BlockSet.

    Raises EmptyResult when the expression denotes the empty set and
    CutNotRepresentable when a cut lands inside a Cantor block at a point
    that is neither a gap point nor an attained endpoint.
    """
    bs = _canonical(_eval_expr(e))
    if bs.is_empty:
        raise EmptyResult("expression denotes the empty set")
    return BlockSet(bs.blocks, provenance=e)


def translate_set(h: BlockSet, x: Q) -> BlockSet:
    return BlockSet(tuple(b.translate(x) for b in h.blocks), provenance=None)


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
    """The set of accumulation points, block by block.

    A level-k tower contributes the (k-1)-tower plus the anchor (a limit of
    the j=1 points), so a sequence, the level-1 tower, gives its anchor alone;
    intervals and Cantor blocks are perfect and contribute themselves.
    """
    out: list[Block] = []
    for b in h.blocks:
        if isinstance(b, Finite):
            continue
        if isinstance(b, PowerSums):
            out.append(Finite((b.anchor,)))
            if b.level >= 2:
                out.append(power_block(b.level - 1, b.anchor, b.scale, b.ratio))
        else:
            out.append(b)
    return normalize_blocks(out)


def level(h: BlockSet):
    """Cantor-Bendixson style rank: least n with the (n+1)-st derived empty.

    Returns math.inf when an interval or Cantor block is present.
    """
    return top_level(h)[0]


def top_level(h: BlockSet):
    """``(level(h), the level-th derived set)`` from one walk of derived sets.

    The derived set is None when the level is infinite.
    """
    if h.is_empty:
        raise EmptyResult("level of the empty set is undefined")
    if any(isinstance(b, (Interval, Cantor)) for b in h.blocks):
        return INFINITE_LEVEL, None
    n = 0
    cur = h
    while True:
        nxt = derived_set(cur)
        if nxt.is_empty:
            return n, cur
        n += 1
        cur = nxt


@dataclass(frozen=True)
class Bounds:
    inf: Q
    sup: Q
    acc_inf: Optional[Q]
    acc_sup: Optional[Q]


def bounds(h: BlockSet) -> Bounds:
    if h.is_empty:
        raise EmptyResult("bounds of the empty set are undefined")
    lo = min(b.inf for b in h.blocks)
    hi = max(b.sup for b in h.blocks)
    acc = derived_set(h)
    if acc.is_empty:
        return Bounds(lo, hi, None, None)
    return Bounds(lo, hi, min(b.inf for b in acc.blocks), max(b.sup for b in acc.blocks))


def diameter(h: BlockSet) -> Q:
    bd = bounds(h)
    return bd.sup - bd.inf


def contains(h: BlockSet, x: Q) -> bool:
    x = as_q(x)
    for b in h.blocks:
        if b.inf <= x <= b.sup and block_contains(b, x):
            return True
    return False


def isolated_outside(h: BlockSet, eps: Q) -> list[Q]:
    """H minus the open eps-neighborhood of H', enumerated exactly.

    A point survives iff its distance to every accumulation point is >= eps.
    Interval and Cantor blocks contribute no candidates (all their points
    accumulate); geometric and tower blocks are cut off by the exact bound
    that their own anchor distance imposes.
    """
    eps = as_q(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    acc = derived_set(h)
    candidates: set[Q] = set()
    for b in h.blocks:
        if isinstance(b, Finite):
            candidates.update(b.points)
        elif isinstance(b, PowerSums):
            candidates.update(tower_outer_points(b, eps))
    out = []
    for x in sorted(candidates):
        if all(block_dist_at_least(b, x, eps) for b in acc.blocks):
            out.append(x)
    return out


def _block_intersect(b1: Block, b2: Block) -> list[Block]:
    if b1 == b2:
        return [b1]
    if b1.sup < b2.inf or b2.sup < b1.inf:
        return []
    if b1.sup == b2.inf or b2.sup == b1.inf:
        pt = b2.inf if b1.sup == b2.inf else b1.inf
        try:
            if block_contains(b1, pt) and block_contains(b2, pt):
                return [Finite((pt,))]
            return []
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
        # clip the other block to [lo, hi]; exact for everything but
        # interior non-gap cuts of a Cantor block
        try:
            low = cut_block(b2, b1.lo, keep_low=False)
            out: list[Block] = []
            for b in low:
                out.extend(cut_block(b, b1.hi, keep_low=True))
            return out
        except CutNotRepresentable as exc:
            raise IntersectionNotRepresentable(str(exc))
    # both are infinite non-interval blocks with overlapping boxes
    u, v = max(b1.inf, b2.inf), min(b1.sup, b2.sup)
    for a, c in ((b1, b2), (b2, b1)):
        pts = points_in_box(a, u, v)
        if pts is not None:
            try:
                hits = tuple(p for p in pts if block_contains(c, p))
            except MembershipUndecided as exc:
                raise IntersectionNotRepresentable(str(exc))
            return [Finite(hits)] if hits else []
    if isinstance(b1, GeomSeq) and isinstance(b2, GeomSeq):
        if _geom_absorbs(b1, b2):
            return [b2]
        if _geom_absorbs(b2, b1):
            return [b1]
    raise IntersectionNotRepresentable(
        f"intersection of {type(b1).__name__} and {type(b2).__name__} blocks "
        "with interleaved accumulation is outside the decidable fragment"
    )


def intersect(h1: BlockSet, h2: BlockSet) -> BlockSet:
    """Exact intersection on the decidable fragment.

    Raises IntersectionNotRepresentable for undecidable block pairs, e.g.
    two overlapping Cantor blocks with different parameters.
    """
    out: list[Block] = []
    for b1 in h1.blocks:
        for b2 in h2.blocks:
            out.extend(_block_intersect(b1, b2))
    return normalize_blocks(out)
