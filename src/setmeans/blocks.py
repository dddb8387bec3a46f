"""Primitive blocks: the exactly-representable pieces of a bounded set.

Every coordinate is a ``Q``, the library's exact rational, so membership,
distances, bounds and cuts are exact.  Five block kinds exist:

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
``GeomSeq`` as the canonical form of a level-1 block.  Those kernels are two
loops down a tower's cluster chain: the distance (membership is distance 0
off the anchor) and the cut (a block's points in a box are two cuts).  Every
Cantor kernel follows one descent of the piece tree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Optional, Union

from .errors import CutNotRepresentable, MembershipUndecided, ValidationError
from .rational import CACHE_SIZE, Q

#: levels a Cantor descent may spend on an orbit that neither cycles nor
#: exits; with r = 1/q each orbit does one or the other within L + 1 levels
CANTOR_DEPTH = 512

#: Python's default int_max_str_digits: no int of more digits is read from
#: text or written as text
INT_DIGITS = 4300


def as_q(value) -> Q:
    """value as a Q: an int or any Fraction is accepted."""
    if type(value) is Q:
        return value
    if isinstance(value, (int, Fraction)):
        return Q(value)
    raise ValidationError(f"expected a rational, got {value!r}")


def _unchecked(cls, fields: dict):
    """A cls block holding fields as they are, without __post_init__: for a
    block derived from a valid one by a map that keeps every invariant."""
    b = object.__new__(cls)
    vars(b).update(fields)
    return b


class cached_property:
    """A value computed on an instance's first read and kept in its
    ``__dict__``: ``functools.cached_property`` without the lock that
    Python 3.11 takes on every first read.  Two threads reading it first
    each compute the same value, and one of them is kept."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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


@lru_cache(maxsize=CACHE_SIZE)
def _log_ratio(x, y) -> Optional[Q]:
    """The rational t with x == y**t, or None; x, y positive rationals, y != 1.

    Over a coprime basis of the numerators and denominators, x is a power of
    y exactly when their exponent vectors are proportional.  The exponent of
    a basis element p is its multiplicity in the numerator, or minus that in
    the denominator (p divides at most one of the two).  Memoised: translates
    and cut sets ask about the same ratios again.
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
        pts = tuple(map(as_q, self.points))
        if not all(map(operator.lt, pts, pts[1:])):
            # sorted, then adjacent equal points dropped: no Fraction is hashed
            pts = tuple(p for p, _ in groupby(sorted(pts)))
        if not pts:
            raise ValidationError("finite block needs at least one point")
        object.__setattr__(self, "points", pts)

    @classmethod
    def of_sorted(cls, points: tuple[Q, ...]) -> "Finite":
        """The block of points that are already Fractions, strictly increasing
        and at least one: taken as they are, with no check."""
        return _unchecked(cls, {"points": points})

    @property
    def inf(self) -> Q:
        return self.points[0]

    @property
    def sup(self) -> Q:
        return self.points[-1]

    def translate(self, x: Q) -> "Finite":
        x = as_q(x)
        return Finite.of_sorted(tuple(p + x for p in self.points))

    def reflect(self, c: Q) -> "Finite":
        c = as_q(c)
        return Finite.of_sorted(tuple(2 * c - p for p in reversed(self.points)))


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

    @cached_property
    def acc_end(self) -> Q:
        """``anchor + scale * S_(level-1)``, the derived set's end off the anchor."""
        return self.anchor + self.scale * self.sums[-2]

    def translate(self, x: Q):
        """The block moved by x, unchecked: the cached sums depend only on
        ratio and level and are carried, and cached ends move by x."""
        x = as_q(x)
        fields = dict(vars(self))
        fields["anchor"] = self.anchor + x
        for end in ("inf", "sup", "acc_end"):
            if end in fields:
                fields[end] += x
        return _unchecked(type(self), fields)

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
        if not self.scale:
            raise ValidationError("geometric sequence scale must be nonzero")
        if not 0 < self.ratio.numerator < self.ratio.denominator:  # 0 < r < 1
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
        if not self.scale:
            raise ValidationError("tower scale must be nonzero")
        # clusters overlap from level 2 on unless r < 1/3; one layer never does
        limit = 1 if self.level == 1 else 3  # r < 1/limit
        n, d = self.ratio.numerator, self.ratio.denominator
        if not (0 < n and n * limit < d):
            raise ValidationError(f"tower ratio must be in (0, {Q(1, limit)})")


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
        x = as_q(x)
        return _unchecked(Interval, {"lo": self.lo + x, "hi": self.hi + x})

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
        n, d = self.ratio.numerator, self.ratio.denominator
        if not (0 < n and n * self.pieces < d):  # 0 < r < 1/pieces
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
        x = as_q(x)
        return _unchecked(Cantor, {"lo": self.lo + x, "hi": self.hi + x,
                                   "pieces": self.pieces, "ratio": self.ratio})

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
    """Exact membership: a sum-of-powers block holds the points at distance
    0 from it (_tower_dist_t) but its anchor; MembershipUndecided only for a
    Cantor orbit that neither cycles nor exits within CANTOR_DEPTH levels."""
    x = as_q(x)
    if isinstance(b, Finite):
        return x in b.points
    if isinstance(b, Interval):
        return b.lo <= x <= b.hi
    if isinstance(b, PowerSums):
        t = (x - b.anchor) / b.scale
        return t > 0 and _tower_dist_t(t, b.level, b.ratio, b.sums) == 0
    for depth, ((lo, hi), i, gap) in enumerate(_cantor_descend(b, x)):
        if depth == CANTOR_DEPTH:
            raise MembershipUndecided(f"cantor membership of {x} unresolved at depth {CANTOR_DEPTH}")
        if i is None:
            return x == lo or x == hi  # x is an end of the box, or outside it
        if gap:
            return False
    return True  # the orbit cycles without falling in a gap: x is in the attractor


def _cantor_descend(b: Cantor, y: Q):
    """Walk b's piece tree towards y: yield ((lo, hi), i, gap) at each level.

    (lo, hi) is the level's box, and i the piece of it at or left of y
    (clamped to the last piece).  gap is None, or the ends of the gap right
    of piece i when y lies in it; the walk stops there.  i None means y is
    at or beyond an end of the box, and ends the walk.  It stops with no
    item when t = (y - lo)/(hi - lo) repeats: y is then in b, and no box
    has it as an end.  Each level maps t to (t - i*u)/r, so for r = 1/q t
    stays in (1/L)Z with L = lcm(den(t), m - 1), and a repeat or an exit
    comes within L + 1 levels; the callers bound the other orbits.
    """
    m, r = b.pieces, b.ratio
    u = (1 - r) / (m - 1)  # normalised piece spacing
    lo, d = b.lo, b.hi - b.lo
    t = (y - lo) / d
    seen = set()
    while 0 < t < 1:
        if t in seen:
            return
        seen.add(t)
        i = min(int(t / u), m - 1)
        iu = i * u
        if t > iu + r:
            yield (lo, lo + d), i, (lo + (iu + r) * d, lo + (iu + u) * d)
            return
        yield (lo, lo + d), i, None
        lo += iu * d
        d *= r
        t = (t - iu) / r
    yield (lo, lo + d), None, None


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
    """Distance from t to {r**n1 + ... + r**nj : 1 <= j <= k, increasing}.

    A loop down the cluster chain.  For p = r**n1 <= t the cluster of first
    index n1 is p + p*({0} u P_(k-1)): its distance to t is the smaller of
    t - p and p times that of (t - p)/p to P_(k-1), which the next level
    measures; w is the product of the p's so far.
    """
    best, w = None, 1
    while 0 < t < sums[k]:
        above, p = None, r
        while p > t:
            above, p = p, p * r
        e = t - p
        if not e:
            return e  # t is the cluster's first point
        d = w * (e if above is None else min(e, above - t))  # or the first point above
        best = d if best is None or d < best else best
        if k == 1:
            return best
        t, w, k = e / p, w * p, k - 1
    d = w * (-t if t <= 0 else t - sums[k])
    return d if best is None or d < best else best


def block_dist_at_least(b: Block, x: Q, eps: Q) -> bool:
    """Decide dist(x, block) >= eps exactly.

    For Cantor blocks this descends the piece tree (_cantor_descend), with
    no depth budget: each level shrinks the box by the ratio r, so for
    eps > 0 the walk ends within log(eps/(hi - lo))/log(r) levels.
    """
    if not isinstance(b, Cantor):
        return block_min_dist(b, x) >= eps
    for (lo, hi), i, gap in _cantor_descend(b, x):
        if i is None:
            return max(lo - x, x - hi) >= eps
        if hi - lo < eps:
            # the ends of this box are in the set, so dist < eps
            return False
        if gap:
            return min(x - gap[0], gap[1] - x) >= eps
    return eps <= 0  # the orbit cycles: x is in the block


# ---------------------------------------------------------------------------
# cuts


def cut_block(b: Block, y: Q, keep_low: bool) -> list[Block]:
    """Exact surgery for the part of the block <= y (or >= y).

    The cut point itself stays on both sides when it belongs to the set,
    matching K^{-y} = K /\\ (-inf, y] and K^{+y} = K /\\ [y, +inf).
    """
    y = as_q(y)
    if isinstance(b, Finite):
        pts = tuple(p for p in b.points if (p <= y if keep_low else p >= y))
        return [Finite.of_sorted(pts)] if pts else []
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
    """Cut a sum-of-powers block at y: one loop down the cluster chain.

    Each level is a + w * P_k, cut at t = (y - a)/w; the sign of w decides
    which side of t is kept.  For p = r**n <= t < r**(n-1), the cluster at
    each q = r**m above p is the point a + w*q and the level-(k-1) block
    a + w*q + w*q * P_(k-1); the clusters below p form the tail a + w*p * P_k;
    and the cluster at p holds the cut, so the walk goes on into it.
    """
    r, sums, k = b.ratio, b.sums, b.level
    a, w = b.anchor, b.scale
    t = (y - a) / w
    keep_small = keep_low == (w > 0)
    out: list[Block] = []
    points = []

    def part(level, anchor, scale):
        if level == b.level and scale == b.scale:
            return b  # the whole block: every proper part is moved or scaled down
        block = power_block(level, anchor, scale, r)
        vars(block)["sums"] = sums[:level + 1]  # the sums depend only on ratio and level
        return block

    while True:
        if t <= 0 or t >= sums[k]:
            if keep_small == (t > 0):
                out.append(part(k, a, w))
            elif t == sums[k]:
                points.append(y)
            break
        above, p = [], r
        while p > t:
            above.append(p)
            p *= r
        wp = w * p  # the cluster at p starts at a + wp
        if keep_small:
            if t >= p * (1 + sums[k - 1]):
                # the whole cluster at p is kept too (always so at level 1,
                # where it is the single point p): the tail starts at index n
                out.append(part(k, a, wp / r))
                break
            out.append(part(k, a, wp))  # the tail: indices >= n+1
            points.append(a + wp)
        else:
            for q in above:
                wq = w * q
                points.append(a + wq)
                if k >= 2:
                    out.append(part(k - 1, points[-1], wq))
            if t <= p:
                points.append(a + wp)
        if k == 1:
            break
        a, w, t, k = a + wp, wp, (t - p) / p, k - 1
    if points:
        points.sort()
        out.append(Finite.of_sorted(tuple(points)))
    return out


def _cut_cantor(b: Cantor, y: Q, keep_low: bool) -> list[Block]:
    """Split a Cantor block at a gap point or an attained endpoint orbit.

    A cut at a point that no box has as an end is not representable: its
    orbit cycles, within L + 1 levels for r = 1/q (_cantor_descend).  One
    that neither cycles nor exits within CANTOR_DEPTH levels raises too,
    naming that budget.  The walk ends before any block is built, so a cut
    that raises builds none; the box of a level is built only when a part
    of it is kept, and at level 0 it is b itself.
    """
    levels = []
    for depth, ((lo, hi), i, gap) in enumerate(_cantor_descend(b, y)):
        if depth == CANTOR_DEPTH:
            raise CutNotRepresentable(f"cut at {y}: the cantor orbit neither cycles nor exits "
                                      f"within the CANTOR_DEPTH budget of {CANTOR_DEPTH} levels")
        levels.append((lo, hi, i, gap))
        if i is None or gap:
            break
    else:
        raise CutNotRepresentable(f"cut at {y} lands inside a cantor block at a non-gap point")

    def box(depth, lo, hi):
        return b if depth == 0 else Cantor(lo, hi, b.pieces, b.ratio)

    out: list[Block] = []
    for depth, (lo, hi, i, gap) in enumerate(levels):
        if i is None:
            # the walk ended at or beyond an end of the box
            if keep_low == (y > lo):
                out.append(box(depth, lo, hi))
            if y == (lo if keep_low else hi):
                out.append(Finite((y,)))
            continue
        # at a gap, piece i lies entirely below the cut
        kept = range(i + 1 if gap else i) if keep_low else range(i + 1, b.pieces)
        if kept:
            whole = box(depth, lo, hi)
            out.extend(whole.piece(j) for j in kept)
    return out


# ---------------------------------------------------------------------------
# enumeration helpers


def tower_outer_points(b: PowerSums, eps: Q, walk: Optional[list] = None) -> list[Q]:
    """Top-layer points of a sum-of-powers block whose last term is at least
    eps; a term counts times |scale|.

    Only full-length index tuples are isolated in the tower; shorter sums
    are accumulation points.  The last term r**nk is the distance to the
    nearest accumulation point inside the block, which bounds the search.
    Points come by last index, so a sequence yields its points in order.
    Given walk, a list the caller keeps (empty at first), a call resumes
    the walk below the last floor and returns only the points below it.
    """
    k = b.level
    limit = eps / abs(b.scale)
    # heads[m]: anchor + scale * (a sum of m terms), one per m-subset of the
    # indices walked so far; p: the next index's term
    heads, p = walk or ([[b.anchor]] + [[] for _ in range(k - 1)], b.ratio)
    out = []
    while p >= limit:
        step = b.scale * p
        out.extend(h + step for h in heads[k - 1])
        for m in range(k - 1, 0, -1):
            heads[m].extend([h + step for h in heads[m - 1]])
        p *= b.ratio
    if walk is not None:
        walk[:] = heads, p
    return out


def tower_top_count(b: PowerSums, eps: Q) -> int:
    """len(tower_outer_points(b, eps)) without enumerating: C(K, level) for
    K = max{k >= 1 : |scale| * r**k >= eps}, or 0 when there is none.

    With r = p/q it reads u * p**k >= v * q**k in integers; K is estimated
    from their base-2 logarithms and settled exactly on each side."""
    w, r = abs(b.scale), b.ratio
    u, v = w.numerator * eps.denominator, eps.numerator * w.denominator
    p, q = r.numerator, r.denominator
    if u * p < v * q:
        return 0
    k = max(1, int((math.log2(u) - math.log2(v)) / (math.log2(q) - math.log2(p))))
    while k > 1 and u * p**k < v * q**k:
        k -= 1
    while u * p ** (k + 1) >= v * q ** (k + 1):
        k += 1
    return math.comb(k, b.level)
