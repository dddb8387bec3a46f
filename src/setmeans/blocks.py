"""Primitive blocks: the exactly-representable pieces of a bounded set.

Every coordinate is a Fraction, so membership, distances, bounds and cuts
are exact.  Five block kinds exist:

* ``Finite``   -- a sorted tuple of distinct points.
* ``GeomSeq``  -- ``{a + w*r**n : n >= 1}``, a geometric sequence
  accumulating at its (excluded) anchor ``a``; any ``0 < r < 1``.
* ``Tower``    -- ``{a + w*(r**n1 + ... + r**nj) : 1 <= j <= k, n1 < ... < nj}``,
  the canonical set whose j-th derived set drops the top layer.  At level
  ``k >= 2``, ``r < 1/3`` keeps the index clusters separated so the layering
  is exact; level 1 is the geometric sequence and takes any ``0 < r < 1``.
* ``Interval`` -- the closed interval ``[lo, hi]``.
* ``Cantor``   -- the attractor of ``m`` equally spaced affine maps with
  contraction ``r < 1/m`` on ``[lo, hi]`` (strong separation holds).

``GeomSeq`` and ``Tower`` are the two sum-of-powers blocks: a sequence is
the level-1 tower, and one set of kernels serves both.  Normalization keeps
``GeomSeq`` as the canonical form of a level-1 block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .errors import CutNotRepresentable, MembershipUndecided, ValidationError

Q = Fraction

#: descent budget for Cantor membership orbits that neither cycle nor exit
CANTOR_DEPTH = 512


def as_q(value) -> Q:
    if isinstance(value, Q):
        return value
    if isinstance(value, int):
        return Q(value)
    raise ValidationError(f"expected a rational, got {value!r}")


def _coprime_basis(nums) -> list[int]:
    """Pairwise coprime integers > 1 whose products give each of nums.

    Gcd refinement: n sharing g > 1 with a basis element b is replaced, with
    b, by g, b // g and n // g.  Each split divides the product of all numbers
    held by g, so there are fewer splits than that product has bits.
    """
    basis: list[int] = []
    todo = [n for n in nums if n > 1]
    while todo:
        n = todo.pop()
        for i, b in enumerate(basis):
            g = math.gcd(n, b)
            if g > 1:
                del basis[i]
                todo.extend(x for x in (g, b // g, n // g) if x > 1)
                break
        else:
            basis.append(n)
    return basis


def _log_ratio(x, y) -> Optional[Q]:
    """The rational t with x == y**t, or None; x, y positive rationals, y != 1.

    Over a coprime basis of the numerators and denominators, x is a power of
    y exactly when their exponent vectors are proportional.  The exponent of
    a basis element p is its multiplicity in the numerator, or minus that in
    the denominator (p divides at most one of the two).
    """
    x, y = Q(x), Q(y)
    basis = _coprime_basis((x.numerator, x.denominator, y.numerator, y.denominator))
    vx, vy = [], []
    for v, q in ((vx, x), (vy, y)):
        for p in basis:
            n, e = q.numerator * q.denominator, 0
            while n % p == 0:  # at most n.bit_length() divisions
                n //= p
                e += 1
            v.append(e if q.numerator % p == 0 else -e)
    t = next(Q(a, b) for a, b in zip(vx, vy) if b)
    return t if all(a == t * b for a, b in zip(vx, vy)) else None


@dataclass(frozen=True)
class Finite:
    points: tuple[Q, ...]

    def __post_init__(self):
        pts = tuple(sorted(set(as_q(p) for p in self.points)))
        if not pts:
            raise ValidationError("finite block needs at least one point")
        object.__setattr__(self, "points", pts)

    @property
    def inf(self) -> Q:
        return self.points[0]

    @property
    def sup(self) -> Q:
        return self.points[-1]

    def translate(self, x: Q) -> "Finite":
        return Finite(tuple(p + x for p in self.points))

    def reflect(self, c: Q) -> "Finite":
        return Finite(tuple(2 * c - p for p in self.points))


class PowerSums:
    """What the sum-of-powers blocks share: ``anchor + scale * P_level``.

    ``P_k`` is the normalized point set of increasing sums of at most ``k``
    powers ``r**n``, ``n >= 1``; it lies in ``(0, S_k]`` with
    ``S_j = r + ... + r**j`` the largest ``j``-term sum.
    """

    @cached_property
    def sums(self) -> tuple[Q, ...]:
        """``(S_0, S_1, ..., S_level)`` with ``S_0 = 0``, the kernels' bounds."""
        out = [Q(0)]
        p = Q(1)
        for _ in range(self.level):
            p *= self.ratio
            out.append(out[-1] + p)
        return tuple(out)

    @cached_property
    def inf(self) -> Q:
        # the anchor side is an infimum, not attained
        return self.anchor if self.scale > 0 else self.anchor + self.scale * self.sums[-1]

    @cached_property
    def sup(self) -> Q:
        return self.anchor + self.scale * self.sums[-1] if self.scale > 0 else self.anchor

    def translate(self, x: Q):
        return replace(self, anchor=self.anchor + x)

    def reflect(self, c: Q):
        return replace(self, anchor=2 * c - self.anchor, scale=-self.scale)


@dataclass(frozen=True)
class GeomSeq(PowerSums):
    """``{anchor + scale * ratio**n : n >= 1}``, the level-1 tower, for any ``0 < r < 1``."""

    anchor: Q
    scale: Q
    ratio: Q
    level = 1  # a class constant, not a dataclass field

    def __post_init__(self):
        object.__setattr__(self, "anchor", as_q(self.anchor))
        object.__setattr__(self, "scale", as_q(self.scale))
        object.__setattr__(self, "ratio", as_q(self.ratio))
        if self.scale == 0:
            raise ValidationError("geometric sequence scale must be nonzero")
        if not (0 < self.ratio < 1):
            raise ValidationError("geometric sequence ratio must be in (0, 1)")


@dataclass(frozen=True)
class Tower(PowerSums):
    """``anchor + scale * P_level``: increasing sums of at most ``level`` powers.

    Level 1 is the geometric sequence (any ``0 < r < 1``, normalized to
    ``GeomSeq``); from level 2 on ``r < 1/3`` keeps the index clusters apart.
    """

    level: int
    anchor: Q
    scale: Q
    ratio: Q

    def __post_init__(self):
        object.__setattr__(self, "anchor", as_q(self.anchor))
        object.__setattr__(self, "scale", as_q(self.scale))
        object.__setattr__(self, "ratio", as_q(self.ratio))
        if not isinstance(self.level, int) or self.level < 1:
            raise ValidationError("tower level must be an integer >= 1")
        if self.scale == 0:
            raise ValidationError("tower scale must be nonzero")
        # clusters overlap from level 2 on unless r < 1/3; one layer never does
        limit = Q(1) if self.level == 1 else Q(1, 3)
        if not (0 < self.ratio < limit):
            raise ValidationError(f"tower ratio must be in (0, {limit})")


def power_block(level: int, anchor: Q, scale: Q, ratio: Q) -> "GeomSeq | Tower":
    """The sum-of-powers block of a level, in canonical form (GeomSeq at level 1)."""
    if level == 1:
        return GeomSeq(anchor, scale, ratio)
    return Tower(level, anchor, scale, ratio)


@dataclass(frozen=True)
class Interval:
    lo: Q
    hi: Q

    def __post_init__(self):
        object.__setattr__(self, "lo", as_q(self.lo))
        object.__setattr__(self, "hi", as_q(self.hi))
        if not self.lo < self.hi:
            raise ValidationError("interval needs lo < hi")

    @property
    def inf(self) -> Q:
        return self.lo

    @property
    def sup(self) -> Q:
        return self.hi

    def translate(self, x: Q) -> "Interval":
        return Interval(self.lo + x, self.hi + x)

    def reflect(self, c: Q) -> "Interval":
        return Interval(2 * c - self.hi, 2 * c - self.lo)


@dataclass(frozen=True)
class Cantor:
    lo: Q
    hi: Q
    pieces: int
    ratio: Q

    def __post_init__(self):
        object.__setattr__(self, "lo", as_q(self.lo))
        object.__setattr__(self, "hi", as_q(self.hi))
        object.__setattr__(self, "ratio", as_q(self.ratio))
        if not self.lo < self.hi:
            raise ValidationError("cantor block needs lo < hi")
        if not isinstance(self.pieces, int) or self.pieces < 2:
            raise ValidationError("cantor block needs at least 2 pieces")
        if not (0 < self.ratio < Q(1, self.pieces)):
            raise ValidationError("cantor ratio must be in (0, 1/pieces)")

    @property
    def inf(self) -> Q:
        return self.lo

    @property
    def sup(self) -> Q:
        return self.hi

    @property
    def gap_step(self) -> Q:
        # spacing between consecutive piece left endpoints, in absolute units
        return (self.hi - self.lo) * (1 - self.ratio) / (self.pieces - 1)

    def piece(self, i: int) -> "Cantor":
        lo = self.lo + i * self.gap_step
        return Cantor(lo, lo + self.ratio * (self.hi - self.lo), self.pieces, self.ratio)

    def translate(self, x: Q) -> "Cantor":
        return Cantor(self.lo + x, self.hi + x, self.pieces, self.ratio)

    def reflect(self, c: Q) -> "Cantor":
        # the equally spaced map family is symmetric, so reflection stays in class
        return Cantor(2 * c - self.hi, 2 * c - self.lo, self.pieces, self.ratio)


Block = Union[Finite, GeomSeq, Tower, Interval, Cantor]

_RANK = {Finite: 0, GeomSeq: 1, Tower: 2, Interval: 3, Cantor: 4}


def block_rank(b: Block) -> int:
    return _RANK[type(b)]


def block_sort_key(b: Block):
    params: tuple
    if isinstance(b, Finite):
        params = b.points
    elif isinstance(b, PowerSums):
        params = (b.level, b.anchor, b.scale, b.ratio)
    elif isinstance(b, Interval):
        params = (b.lo, b.hi)
    else:
        params = (b.lo, b.hi, b.pieces, b.ratio)
    return (block_rank(b), b.inf, b.sup, params)


def is_infinite_block(b: Block) -> bool:
    return not isinstance(b, Finite)


# ---------------------------------------------------------------------------
# membership


def block_contains(b: Block, x: Q) -> bool:
    """Exact membership; MembershipUndecided only for deep Cantor orbits."""
    x = as_q(x)
    if isinstance(b, Finite):
        return x in b.points
    if isinstance(b, Interval):
        return b.lo <= x <= b.hi
    if isinstance(b, PowerSums):
        return _tower_contains_t((x - b.anchor) / b.scale, b.level, b.ratio, b.sums)
    return _cantor_contains(b, x)


def _tower_contains_t(t: Q, k: int, r: Q, sums) -> bool:
    """Is t a sum r**n1 + .. + r**nj with 1 <= j <= k, increasing indices?"""
    while True:
        if t <= 0 or t > sums[k]:
            return False
        # locate the first-index cluster: r**n1 <= t < r**(n1-1)
        p = r
        while p > t:
            p *= r
        if t == p:
            return True
        if k == 1:
            return False
        # strip the leading term and recurse with indices shifted down
        t = (t - p) / p
        k -= 1


def _cantor_contains(b: Cantor, x: Q) -> bool:
    if x < b.lo or x > b.hi:
        return False
    t = (x - b.lo) / (b.hi - b.lo)
    r = b.ratio
    u = (1 - r) / (b.pieces - 1)  # normalized piece spacing
    seen = set()
    for _ in range(CANTOR_DEPTH):
        if t == 0 or t == 1:
            return True
        if t in seen:
            # orbit cycles without ever falling in a gap: x is in the attractor
            return True
        seen.add(t)
        i = int(t / u)
        if i > b.pieces - 1:
            i = b.pieces - 1
        # piece i spans [i*u, i*u + r]; anything between pieces is a gap
        if t < i * u:
            i -= 1
        if t > i * u + r:
            return False
        t = (t - i * u) / r
    raise MembershipUndecided(f"cantor membership of {x} unresolved at depth {CANTOR_DEPTH}")


# ---------------------------------------------------------------------------
# distances


def block_min_dist(b: Block, x: Q) -> Q:
    """Exact infimum distance from x to the block (Cantor not supported here)."""
    x = as_q(x)
    if isinstance(b, Finite):
        return min(abs(x - p) for p in b.points)
    if isinstance(b, Interval):
        if x < b.lo:
            return b.lo - x
        if x > b.hi:
            return x - b.hi
        return Q(0)
    if isinstance(b, PowerSums):
        t = (x - b.anchor) / b.scale
        return abs(b.scale) * _tower_dist_t(t, b.level, b.ratio, b.sums)
    raise TypeError("use block_dist_at_least for Cantor blocks")


def _tower_dist_t(t: Q, k: int, r: Q, sums) -> Q:
    """Distance from t to {r**n1 + ... + r**nj : 1 <= j <= k, increasing}."""
    if t <= 0:
        return -t
    if t >= sums[k]:
        return t - sums[k]
    p = r
    while p > t:
        p *= r
    # p = r**n1 <= t: the cluster with first index n1 is p + p*({0} u P_(k-1)),
    # so its distance to t is the smaller of t - p and the scaled sub-distance
    # (which is t - p*(1 + S_(k-1)) past the cluster's top)
    d = t - p
    if p < r:
        d = min(d, p / r - t)  # the first point of the cluster above
    if k >= 2:
        d = min(d, p * _tower_dist_t((t - p) / p, k - 1, r, sums))
    return d


def block_dist_at_least(b: Block, x: Q, eps: Q) -> bool:
    """Decide dist(x, block) >= eps exactly.

    For Cantor blocks this descends the piece tree; each level shrinks the
    bounding box by the contraction ratio so the test always terminates.
    """
    if not isinstance(b, Cantor):
        return block_min_dist(b, x) >= eps
    lo, hi = b.lo, b.hi
    r, m = b.ratio, b.pieces
    while True:
        if x <= lo:
            return lo - x >= eps
        if x >= hi:
            return x - hi >= eps
        d = hi - lo
        if d < eps:
            # endpoints of this box are in the set, so dist < d < eps
            return False
        step = d * (1 - r) / (m - 1)
        i = int((x - lo) / step)
        if i > m - 1:
            i = m - 1
        if x < lo + i * step:
            i -= 1
        p_lo = lo + i * step
        p_hi = p_lo + r * d
        if x > p_hi:
            # in the gap between piece i and piece i+1
            return min(x - p_hi, (p_lo + step) - x) >= eps
        lo, hi = p_lo, p_hi


# ---------------------------------------------------------------------------
# cuts


def cut_block(b: Block, y: Q, keep_low: bool) -> list[Block]:
    """Exact surgery for the part of the block <= y (or >= y).

    The cut point itself stays on both sides when it belongs to the set,
    matching K^{-y} = K /\\ (-inf, y] and K^{+y} = K /\\ [y, +inf).
    """
    y = as_q(y)
    if isinstance(b, Finite):
        pts = [p for p in b.points if (p <= y if keep_low else p >= y)]
        return [Finite(tuple(pts))] if pts else []
    if isinstance(b, Interval):
        if keep_low:
            if y <= b.lo:
                return [Finite((b.lo,))] if y == b.lo else []
            return [Interval(b.lo, min(b.hi, y))] if y < b.hi else [b]
        if y >= b.hi:
            return [Finite((b.hi,))] if y == b.hi else []
        return [Interval(max(b.lo, y), b.hi)] if y > b.lo else [b]
    if isinstance(b, PowerSums):
        return _cut_tower(b, y, keep_low)
    return _cut_cantor(b, y, keep_low)


def _cut_tower(b: PowerSums, y: Q, keep_low: bool) -> list[Block]:
    # work in t-space; the scale's sign flips the side
    t = (y - b.anchor) / b.scale
    keep_small_t = keep_low if b.scale > 0 else not keep_low
    out: list[Block] = []
    points = []
    for kind, payload in _cut_tower_t(t, b.level, b.ratio, b.sums, keep_small_t):
        if kind == "point":
            points.append(b.anchor + b.scale * payload)
        else:
            lvl, offset, scl = payload
            if offset == 0 and scl == 1:
                out.append(b)  # the whole block: every proper part is moved or scaled down
            else:
                out.append(power_block(lvl, b.anchor + b.scale * offset, b.scale * scl, b.ratio))
    if points:
        out.append(Finite(tuple(points)))
    return out


def _cut_tower_t(t: Q, k: int, r: Q, sums, keep_small: bool):
    """Cut the normalized tower point set at t.

    Returns a list of ("point", value) and ("tower", (level, offset, scale))
    parts, where the tower part denotes offset + scale * P_level.
    """
    max_sum = sums[k]
    if t <= 0:
        return [] if keep_small else [("tower", (k, 0, 1))]
    if t >= max_sum:
        return [("tower", (k, 0, 1))] if keep_small else (
            [("point", max_sum)] if t == max_sum else []
        )
    n, p = 1, r
    while p > t:
        p *= r
        n += 1
    # clusters with first index > n form the tail p*P_k; clusters with first
    # index < n are, each, an anchor point plus a scaled (k-1)-tower; the
    # cluster at p = r**n, the point p plus p + p*P_(k-1), holds the cut
    if keep_small:
        if t >= p * (1 + sums[k - 1]):
            # the whole cluster at p is kept too (always so at level 1, where
            # it is the single point p): the tail starts at index n
            return [("tower", (k, 0, p / r))]
        parts = [("tower", (k, 0, p)), ("point", p)]  # tail: indices >= n+1
    else:
        parts = []
        for m in range(1, n):
            q = r**m
            parts.append(("point", q))
            if k >= 2:
                parts.append(("tower", (k - 1, q, q)))
        if t <= p:
            parts.append(("point", p))
    if k >= 2:
        for kind, payload in _cut_tower_t((t - p) / p, k - 1, r, sums, keep_small):
            if kind == "point":
                parts.append(("point", p + p * payload))
            else:
                lvl, off, scl = payload
                parts.append(("tower", (lvl, p + p * off, p * scl)))
    return parts


def _cut_cantor(b: Cantor, y: Q, keep_low: bool) -> list[Block]:
    """Split a Cantor block at a gap point or an attained endpoint orbit."""
    low: list[Block] = []
    high: list[Block] = []
    box = b
    for _ in range(CANTOR_DEPTH):
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
            # gap point: piece i is entirely below the cut
            low.append(box.piece(i))
            return low if keep_low else high
        box = box.piece(i)
    raise CutNotRepresentable(f"cut at {y} lands inside a cantor block at a non-gap point")


# ---------------------------------------------------------------------------
# enumeration helpers


def tower_outer_points(b: PowerSums, eps: Q, below: Q | None = None) -> list[Q]:
    """Top-layer points of a sum-of-powers block whose last term lies in [eps, below).

    Only full-length index tuples are isolated in the tower; shorter sums
    are accumulation points.  The last term r**nk is the distance to the
    nearest accumulation point inside the block, which bounds the search;
    the optional upper bound lets ladder callers enumerate one band at a
    time instead of re-walking the whole prefix tree every step.  Points
    come by last index, so a sequence yields its points in order.
    """
    r = b.ratio
    k = b.level
    size = abs(b.scale)
    limit = eps / size
    limit_hi = None if below is None else below / size
    ps = []  # r**n for every index n whose term is at least eps
    start = 0  # ps[start:] are the terms below `below`, the band's last terms
    p = r
    while p >= limit:
        ps.append(p)
        if limit_hi is not None and p >= limit_hi:
            start += 1
        p *= r
    if start == len(ps):
        return []
    # heads[m]: anchor + scale * (a sum of m terms), one per m-subset of the
    # indices walked so far; one-term points need no heads, so skip to the band
    heads = [[b.anchor]] + [[] for _ in range(k - 1)]
    grown = range(k - 1, 0, -1)
    out = []
    for j in range(0 if k > 1 else start, len(ps)):
        step = b.scale * ps[j]
        if j >= start:
            out.extend(h + step for h in heads[k - 1])
        for m in grown:
            heads[m].extend([h + step for h in heads[m - 1]])
    return out


def points_in_box(b: Block, u: Q, v: Q):
    """Exact list of the block's points inside [u, v], or None when infinite.

    The result is infinite exactly when the closed box reaches an
    accumulation point with approach room on the accumulation side.
    Cantor and Interval blocks are never enumerable (None unless disjoint).
    Sum-of-powers points come cluster by cluster from the one farthest from
    the anchor, so a sequence lists its points in order.
    """
    if v < u:
        return []
    if isinstance(b, Finite):
        return [p for p in b.points if u <= p <= v]
    if v < b.inf or u > b.sup:
        return []
    if isinstance(b, (Interval, Cantor)):
        return None
    # sum-of-powers block: enumerate in normalized coordinates
    if b.scale > 0:
        tmin = (u - b.anchor) / b.scale
        tmax = (v - b.anchor) / b.scale
    else:
        tmin = (v - b.anchor) / b.scale
        tmax = (u - b.anchor) / b.scale
    ts = _tower_pts_in_t(b.level, b.ratio, b.sums, tmin, tmax)
    if ts is None:
        return None
    return [b.anchor + b.scale * t for t in ts]


def _tower_pts_in_t(k: int, r: Q, sums, tmin: Q, tmax: Q):
    """Points of the normalized tower set inside [tmin, tmax], or None."""
    if tmax <= 0 or tmin > sums[k]:
        return []
    if tmin <= 0:
        # the set accumulates at 0 from above, so any room above 0 is infinite
        return None
    grow = 1 + sums[k - 1]
    out = []
    p = r
    while p * grow >= tmin:
        # the first-index cluster at p = r**n spans [p, p*(1+S_(k-1))];
        # every point of it is >= p, so clusters above tmax contribute nothing
        if p <= tmax:
            if tmin <= p:
                out.append(p)
            if k >= 2:
                sub = _tower_pts_in_t(k - 1, r, sums, (tmin - p) / p, (tmax - p) / p)
                if sub is None:
                    return None
                out.extend(p + p * s for s in sub)
        p *= r
    return out
