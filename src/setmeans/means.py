"""Evaluators for the five means and for mean-relative liminf/limsup.

Every mean but lis is the weighted mean of a set's top-order parts, read
from one ``Weight`` (``weight_of``): its points under arith, its top-level
points under acc, its intervals, Cantor blocks or points at the maximal
dimension under avg, and under iso the anchors that the isolated points
crowd at (``iso_growth``), weighted by their count coefficients.  A mean is
exact when its weights are rational multiples of one another and otherwise
the midpoint of an enclosure narrower than tol.  Equal weight and
roundness compare Weights: their orders, then their magnitudes.

The verdicts order Hausdorff dimensions log m / log(1/r), Cantor weights
sum diam**s and isolated-count coefficients sum c * (1/ln(1/r))**d through
one number layer: ``blocks._log_ratio`` decides exactly whether a rational
is a power of another (exponent vectors over a coprime basis, gcds only),
sums compare exactly class by commensurable class, and ``_separate`` orders
what is left by enclosures at 64 to 4096 bits.  Once that budget is spent
the comparison is undecided: IncomparableDimensions, or an INCONCLUSIVE
verdict.  An enclosure is a (lo, hi) pair of mpmath's interval kernel
(mpmath.libmp), built at a precision passed as an argument and read at 53
bits, so mpmath's global precision neither changes nor matters.  Each power
test and enclosure is computed once per value and precision and kept, and
so is each Cantor family's dimension (rational.CACHE_SIZE entries each:
the bound every memo of the library shares, with rational._inverse and the
parsed operands of cli._norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

from mpmath.libmp import (fzero, from_float, from_int, mpf_lt, mpi_add, mpi_delta, mpi_div,
                          mpi_exp, mpi_log, mpi_lt, mpi_mid, mpi_mul, mpi_pow, mpi_sub,
                          round_ceiling, round_floor, to_float)

from .blocks import Cantor, Interval, PowerSums, Q, _log_ratio, _unchecked
from .errors import DomainViolation, EmptyResult, IncomparableDimensions, ValidationError
from .rational import CACHE_SIZE
from .sets import BlockSet, bounds, level, top_level, INFINITE_LEVEL


class MeanKind(str, Enum):
    ARITH = "arith"
    LIS = "lis"
    ACC = "acc"
    ISO = "iso"
    AVG = "avg"


@dataclass(frozen=True)
class MeanValue:
    status: str  # "exact" | "approx" | "undefined"
    value: Optional[Q] = None
    approx: Optional[float] = None
    tol: Optional[float] = None
    reason: Optional[str] = None

    @staticmethod
    def exact(value: Q) -> "MeanValue":
        """Built with no frozen __setattr__; the other fields read their defaults."""
        return _unchecked(MeanValue, {"status": "exact", "value": Q(value)})

    @staticmethod
    def approximate(value: float, tol: float) -> "MeanValue":
        return MeanValue("approx", approx=float(value), tol=float(tol))

    @staticmethod
    def undefined(reason: str) -> "MeanValue":
        return MeanValue("undefined", reason=reason)

    @property
    def is_exact(self) -> bool:
        return self.status == "exact"

    @property
    def is_defined(self) -> bool:
        return self.status != "undefined"

    def as_float(self) -> Optional[float]:
        if self.status == "exact":
            return float(self.value)
        if self.status == "approx":
            return self.approx
        return None

    def shifted(self, x: Q) -> "MeanValue":
        if self.status == "exact":
            return MeanValue.exact(self.value + x)
        if self.status == "approx":
            return MeanValue.approximate(self.approx + float(x), self.tol)
        return self

    def __str__(self):
        if self.status == "exact":
            return str(self.value)
        if self.status == "approx":
            return f"~{self.approx:.12g}"
        return f"undefined({self.reason})"


def order(a: MeanValue, b: MeanValue, tol: float) -> Optional[int]:
    """The sign of a - b, the one comparison of two mean values.

    Exact when both values are exact; when either is approximate, values
    within 2*tol of each other are equal (0).  None when either value is
    undefined (the comparison is vacuous).
    """
    if not (a.is_defined and b.is_defined):
        return None
    if a.is_exact and b.is_exact:
        x, y = a.value, b.value
    else:
        x, y = a.as_float(), b.as_float()
        if abs(x - y) <= 2 * tol:
            return 0
    return (x > y) - (x < y)


def combine(f, *values: MeanValue, tol: float) -> MeanValue:
    """f of the values: exact when all are exact, else f of their floats
    within 2*tol; undefined, for the first undefined value's reason, when
    any is undefined."""
    for v in values:
        if not v.is_defined:
            return MeanValue.undefined(v.reason)
    if all(v.is_exact for v in values):
        return MeanValue.exact(f(*(v.value for v in values)))
    return MeanValue.approximate(f(*(v.as_float() for v in values)), 2 * tol)


@dataclass(frozen=True)
class LadderConfig:
    """The tolerance of approximate values: an approximate mean is within tol."""

    tol: float = 1e-9

    def __post_init__(self):
        # an enclosure is narrowed until it is narrower than tol, and
        # combine's 2*tol must be a finite bound
        if not 0 < 2 * self.tol < math.inf:
            raise ValidationError("tol must be positive and finite")


DEFAULT_CONFIG = LadderConfig()


def arith_mean(values) -> Q:
    """Arithmetic mean with multiset semantics: duplicates are counted."""
    vals = list(values)
    if not vals:
        raise EmptyResult("arithmetic mean of nothing")
    return sum(vals, Q(0)) / len(vals)


# ---------------------------------------------------------------------------
# certified separation


# the precisions of every enclosure ladder: doubling, then the budget is spent
_LADDER = (64, 128, 256, 512, 1024, 2048, 4096)
# the precision an enclosure's width and midpoint are read at: mpmath's default
_READ_BITS = 53
_IV_ZERO = (fzero, fzero)


def _separate(f, g) -> Optional[int]:
    """Certified sign of f - g (-1 or 1), or None once 4096 bits do not tell.

    f(bits) and g(bits) build enclosures at bits; they are evaluated at
    doubling precision until the intervals are disjoint.  Equal values never
    separate, so callers decide equality exactly first.
    """
    for bits in _LADDER:
        a, b = f(bits), g(bits)
        if mpi_lt(a, b):
            return -1
        if mpi_lt(b, a):
            return 1
    return None


def _iv_int(n: int, bits: int):
    """Enclosure of an integer n: its floor and ceiling roundings to bits."""
    return from_int(n, bits, round_floor), from_int(n, bits, round_ceiling)


def _iv_q(q, bits: int):
    """Enclosure of a rational (or integer) q."""
    return mpi_div(_iv_int(q.numerator, bits), _iv_int(q.denominator, bits), bits)


def _iv_sum(xs, bits: int):
    """The sum of enclosures, from an exact 0 as sum() starts."""
    total = _IV_ZERO
    for x in xs:
        total = mpi_add(total, x, bits)
    return total


@lru_cache(maxsize=CACHE_SIZE)
def _iv_log(q, bits: int):
    """Enclosure of ln q for a positive rational (or integer) q."""
    return mpi_sub(mpi_log(_iv_int(q.numerator, bits), bits),
                   mpi_log(_iv_int(q.denominator, bits), bits), bits)


def _rational_power(q: Q, s: Q) -> Optional[Q]:
    """q**s for a positive rational q and a rational s when it is rational, else None.

    Integer Newton iteration from a power of two at or above each root, so
    integers of any size work (a float root overflows past about 2**1024).
    """
    j, roots = s.denominator, []
    for n in (q.numerator, q.denominator):
        x = 1 << -(-n.bit_length() // j)
        while (y := ((j - 1) * x + n // x ** (j - 1)) // j) < x:
            x = y
        if x**j != n:
            return None
        roots.append(x)
    return Q(*roots) ** s.numerator


# ---------------------------------------------------------------------------
# Hausdorff dimension values


@dataclass(frozen=True)
class DimValue:
    kind: str  # "zero" | "log_ratio" | "one"
    m: Optional[int] = None
    invr: Optional[Q] = None

    def __str__(self):
        return {"zero": "0", "one": "1"}.get(self.kind) or f"log {self.m}/log {self.invr}"


DIM_ZERO = DimValue("zero")
DIM_ONE = DimValue("one")


def block_dim(b) -> DimValue:
    if isinstance(b, Cantor):
        return _cantor_dim(b.pieces, b.ratio)
    return DIM_ONE if isinstance(b, Interval) else DIM_ZERO


@lru_cache(maxsize=CACHE_SIZE)
def _cantor_dim(m: int, r: Q) -> DimValue:
    """log m / log(1/r): one object per (pieces, ratio), compared by identity."""
    return DimValue("log_ratio", m=m, invr=1 / r)


def compare_dims(d1: DimValue, d2: DimValue) -> int:
    """Three-way comparison of dimensions; exact or provably separated.

    Rational dimensions compare exactly, and m1 = m2**t with
    invr1 = invr2**t makes two dimensions equal.  Any other pair is
    separated by interval arithmetic; IncomparableDimensions is raised when
    its budget is spent.
    """
    rank = {"zero": 0, "log_ratio": 1, "one": 2}
    if d1.kind != d2.kind:
        return -1 if rank[d1.kind] < rank[d2.kind] else 1
    if d1.kind != "log_ratio":
        return 0
    if d1 == d2:
        return 0
    r1 = _log_ratio(d1.m, d1.invr)
    r2 = _log_ratio(d2.m, d2.invr)
    if r1 is not None and r2 is not None:
        return (r1 > r2) - (r1 < r2)
    t = _log_ratio(d1.m, d2.m)
    if t is not None and t == _log_ratio(d1.invr, d2.invr):
        return 0
    sign = _separate(lambda bits: mpi_div(_iv_log(d1.m, bits), _iv_log(d1.invr, bits), bits),
                     lambda bits: mpi_div(_iv_log(d2.m, bits), _iv_log(d2.invr, bits), bits))
    if sign is None:
        raise IncomparableDimensions(
            f"cannot separate log {d1.m}/log {d1.invr} from log {d2.m}/log {d2.invr}"
        )
    return sign


def dimension_of(h: BlockSet) -> DimValue:
    """Largest block dimension in the set."""
    if h.is_empty:
        raise EmptyResult("dimension of the empty set")
    best = DIM_ZERO
    for b in h.blocks:
        d = block_dim(b)
        if d is not best and compare_dims(d, best) > 0:
            best = d
    return best


def _classes(items, ratio) -> dict:
    """Split (term, payload) items into classes of related terms.

    ratio(x, x0) relates x to x0, or is None: for a weight, the rational
    x / x0 when the two are commensurable.  Maps the first term of each
    class to the list of (ratio(term, first term), payload) of its items.
    """
    classes: dict = {}
    for x, payload in items:
        for first, members in classes.items():
            q = ratio(x, first)
            if q is not None:
                members.append((q, payload))
                break
        else:
            classes[x] = [(ratio(x, x), payload)]
    return classes


def _weighted_mean(items, ratio, enclose, tol: float) -> MeanValue:
    """sum(w * x) / sum(w) over (weight w, x) items with positive weights:
    _mean_of_sums of the class sums (first, sum(q), sum(q * x)) of the
    commensurable classes (_classes), where an item weighs q times first."""
    sums = [(first, sum(q for q, _ in members), sum(q * x for q, x in members))
            for first, members in _classes(items, ratio).items()]
    return _mean_of_sums(sums, enclose, tol)


def _mean_of_sums(sums, enclose, tol: float) -> MeanValue:
    """sum(first * num) / sum(first * den) over the class sums (first, den, num).

    Exact when every class has the same mean num / den, as one class always
    has; otherwise the midpoint of an enclosure, enclose(first, bits) for a
    class's weight, narrowed below tol at the ladder's precisions; its width
    and midpoint are read at 53 bits.  ValidationError once 4096 bits are
    not narrow enough for tol, or when the mean is past the float range.
    """
    (_, den0, num0), *rest = sums
    if all(num * den0 == num0 * den for _, den, num in rest):
        return MeanValue.exact(num0 / den0)
    width = from_float(tol)
    for bits in _LADDER:
        weights = [enclose(first, bits) for first, _, _ in sums]
        den = _iv_sum([mpi_mul(w, _iv_q(d, bits), bits) for w, (_, d, _) in zip(weights, sums)],
                      bits)
        x = mpi_div(_iv_sum([mpi_mul(w, _iv_q(n, bits), bits)
                             for w, (_, _, n) in zip(weights, sums)], bits), den, bits)
        if mpf_lt(mpi_delta(x, _READ_BITS), width):
            mid = to_float(mpi_mid(x, _READ_BITS))
            if not math.isfinite(mid):
                raise ValidationError("the mean is outside the float range: "
                                      f"its enclosure's midpoint reads {mid} as a float")
            return MeanValue.approximate(mid, tol)
    raise ValidationError(f"no enclosure within tol {tol}: {bits} bits spent, the budget")


def _joint_sums(terms1, terms2, ratio) -> list:
    """(first, sum(q), sum(q * side)) for each commensurable class (see
    _classes) of terms1 (side 1) and terms2 (side -1) together: the class's
    sum over both lists and its difference, in its first term's units."""
    classes = _classes([(x, 1) for x in terms1] + [(x, -1) for x in terms2], ratio)
    return [(first, sum(q for q, _ in members), sum(q * side for q, side in members))
            for first, members in classes.items()]


def _compare_sums(terms1, terms2, ratio, enclose, sums=None) -> Optional[int]:
    """Sign of sum(terms1) - sum(terms2) for positive terms; None when undecided.

    The sums are equal when every commensurable class sums to the same on
    both sides, and a single class compares exactly in its first term's
    units; otherwise the enclose(x) intervals are separated.  sums is
    _joint_sums(terms1, terms2, ratio), built here unless the caller has it.
    """
    if sums is None:
        sums = _joint_sums(terms1, terms2, ratio)
    diffs = [d for _, _, d in sums]
    if not any(diffs):
        return 0
    if len(diffs) == 1:
        return 1 if diffs[0] > 0 else -1
    return _separate(lambda bits: _iv_sum([enclose(x, bits) for x in terms1], bits),
                     lambda bits: _iv_sum([enclose(x, bits) for x in terms2], bits))


def _weight_ratio(a, b) -> Optional[Q]:
    """The rational diam_a**s / diam_b**s of two (diam, m, invr) terms, or None.

    Both terms have one dimension s.  The ratio is 1 for equal diameters;
    (diam_a / diam_b)**s when s is rational and that power is rational; and,
    in one family or across families, m_b**t when diam_a / diam_b == invr_b**t
    for a rational t and that power is rational, because invr_b**s == m_b.
    """
    (da, m, invr), (db, mb, invrb) = a, b
    if da == db:
        return Q(1)
    s = _log_ratio(m, invr)
    if s is not None:
        return _rational_power(da / db, s)
    t = _log_ratio(da / db, invrb)
    return None if t is None else _rational_power(Q(mb), t)


@lru_cache(maxsize=CACHE_SIZE)
def _iv_weight(term, bits: int):
    """Enclosure of the weight diam**s of a (diam, m, invr) term, s = log m / log invr."""
    d, m, invr = term
    s = mpi_div(_iv_log(m, bits), _iv_log(invr, bits), bits)
    return mpi_exp(mpi_mul(s, _iv_log(d, bits), bits), bits)


# ---------------------------------------------------------------------------
# isolated-count growth


_NOT_DENSE = "set has interval or cantor parts; isolated points are not dense"


def iso_growth(h: BlockSet):
    """``(degree, terms)``: how many isolated points lie outside the
    eps-neighborhood of the accumulation set as eps -> 0.

    A level-d sum-of-powers block with ratio r has about
    (ln(1/eps) / ln(1/r))**d / d! such points, so the count grows like a
    polynomial of degree d, the deepest level (0 for a finite set), in
    ln(1/eps).  A term (anchor, c, r) adds c * (1/ln(1/r))**d / d! to its
    leading coefficient, from points that crowd at the anchor.  Lower
    levels, and the points that lie near another block's accumulation
    points, change only lower-order terms.

    The top-level blocks of one anchor and side whose ratios and scales are
    powers of one base rho make one term: their top points are sums of d
    distinct powers of rho with exponents in the progressions
    {e_i + p_i * n}, and such sums are distinct for a rational rho < 1, so
    the points they share are counted once by inclusion-exclusion
    (_progressions_union).  A finite set is the one term
    (its mean, its size, None).
    """
    degree = level(h)
    if degree == INFINITE_LEVEL:
        raise DomainViolation(_NOT_DENSE)
    if degree == 0:
        pts = h.finite_points()
        return 0, ((arith_mean(pts), Q(len(pts)), None),)

    def powers(b, b0):
        # (t, s) with ratio r0**t and scale w0 * r0**s, when b can share points with b0
        if b.anchor != b0.anchor or (b.scale > 0) != (b0.scale > 0):
            return None
        t, s = _log_ratio(b.ratio, b0.ratio), _log_ratio(b.scale / b0.scale, b0.ratio)
        return None if t is None or s is None else (t, s)

    tops = [(b, None) for b in h.blocks if isinstance(b, PowerSums) and b.level == degree]
    terms = []
    for b0, members in _classes(tops, powers).items():
        # rho = r0**(1/n): member i's points have the exponents n*s + n*t*k, k >= 1
        n = math.lcm(*(x.denominator for ts, _ in members for x in ts))
        union = _progressions_union([(int(n * s), int(n * t)) for (t, s), _ in members], degree)
        terms.append((b0.anchor, n**degree * union, b0.ratio))
    return degree, tuple(terms)


def _progressions_union(progressions, degree: int, e: int = 0, p: int = 1) -> Q:
    """Inclusion-exclusion over the progressions {e_i + p_i * k}, given as
    (e_i, p_i), inside the class x = e (mod p); an exact Fraction.

    Each nonempty subfamily T whose congruences x = e_i (mod p_i) agree with
    x = e (mod p) adds (-1)**(|T| + 1) / step_T**degree, step_T the lcm of p
    and its p_i: a d-subset of step-p exponents is counted (1/p)**d times one
    of step 1.  A progression whose residue clashes with e adds nothing, and
    neither does any subfamily containing it.  When the others agree
    pairwise, every subfamily of them agrees (CRT), step_T is p times the
    lcm of the p_i / gcd(p, p_i), and the sum is (1 - C) / p**degree with C
    their _lcm_sum.  Otherwise the subfamilies are extended one progression
    at a time from the agreed congruence, and each extension is summed the
    same way.
    """
    live = [(ei, pi) for ei, pi in progressions if (ei - e) % math.gcd(p, pi) == 0]
    if all((ea - eb) % math.gcd(pa, pb) == 0
           for i, (ea, pa) in enumerate(live) for eb, pb in live[i + 1:]):
        return (1 - _lcm_sum([pi // math.gcd(p, pi) for _, pi in live], degree)) / p**degree
    total = Q(0)
    for i, (ei, pi) in enumerate(live):
        g = math.gcd(p, pi)
        step = p // g * pi
        x = (e + p * ((ei - e) // g * pow(p // g, -1, pi // g))) % step
        total += Q(1, step**degree) - _progressions_union(live[i + 1:], degree, x, step)
    return total


def _lcm_sum(steps, degree: int) -> Q:
    """C(S): the sum over all subfamilies T of S of (-1)**|T| / lcm(T)**degree.

    The empty family adds 1.  A step that is a multiple of another, or a
    repeat, leaves C unchanged, and a step of 1 makes it 0.  When every step
    is a multiple of g > 1, C(S) = 1 + (C(S/g) - 1) / g**degree.  Families
    that share no prime multiply.  Otherwise, for the least step a,
    C(S) = C(S - a) - C({s / gcd(a, s)}) / a**degree, because
    lcm(a, T) = a * lcm({s / gcd(a, s) : s in T}).
    """
    s = sorted(set(steps))
    if s and s[0] == 1:
        return Q(0)
    s = [x for i, x in enumerate(s) if all(x % y for y in s[:i])]
    if not s:
        return Q(1)
    g = math.gcd(*s)
    if g > 1:
        return 1 + (_lcm_sum([x // g for x in s], degree) - 1) / Q(g) ** degree
    group, rest = [s[0]], s[1:]
    while joined := [x for x in rest if any(math.gcd(x, y) > 1 for y in group)]:
        group += joined
        rest = [x for x in rest if x not in joined]
    if rest:
        return _lcm_sum(group, degree) * _lcm_sum(rest, degree)
    a, others = s[0], s[1:]
    return (_lcm_sum(others, degree)
            - _lcm_sum([x // math.gcd(a, x) for x in others], degree) / Q(a) ** degree)


def _count_weights(degree: int):
    """(ratio, enclose) of the (c, r) count terms worth c * (1/ln(1/r))**degree.

    At degree 0 a term is worth c, and the one term of a finite set has r None.
    """

    def ratio(x, x0):
        t = _log_ratio(x[1], x0[1]) if degree else Q(1)
        return None if t is None else x[0] / x0[0] / t**degree

    return ratio, lambda x, bits: _iv_count_weight(x, degree, bits)


@lru_cache(maxsize=CACHE_SIZE)
def _iv_count_weight(x, degree: int, bits: int):
    """Enclosure of c * (1/ln(1/r))**degree for a (c, r) count term."""
    power = mpi_pow(_iv_log(1 / x[1], bits), _iv_int(degree, bits), bits)
    return mpi_div(_iv_q(x[0], bits), power, bits)


# ---------------------------------------------------------------------------
# orders and weights


def order_of(h: BlockSet, kind: MeanKind):
    """The order of h under kind, outside Dom(kind) too: what smallness
    compares.  The dimension under avg, the level capped at 1 under lis (a
    finite set has none of lis's accumulation points, and any other has
    them), and the level under every other mean, math.inf when h has
    interval or Cantor parts."""
    if kind is MeanKind.AVG:
        return dimension_of(h)
    if kind is MeanKind.LIS:
        return min(level(h), 1)
    return level(h)


def compare_orders(a, b) -> int:
    """Sign of order a minus order b: dimensions by compare_dims, levels as numbers."""
    if isinstance(a, DimValue):
        return compare_dims(a, b)
    return (a > b) - (a < b)


@dataclass(frozen=True, slots=True)
class Weight:
    """What a set weighs under a mean other than lis.

    order: order_of the set (under iso the level is the count degree).
    terms and positions: those of the top-order parts, in block order; a
    term is 1 for a point, an interval's length, a Cantor block's (diam, m,
    invr) worth diam**s, or an iso term's (c, r) worth c * (1/ln(1/r))**degree.
    total: the terms' sum when it is rational (an int for counts), else None
    and ratio and enclose relate and enclose the terms.  The tuples are
    parallel: a weight is kept with its set, and a pair per part would add
    objects for the collector.
    """

    order: object
    terms: tuple
    positions: tuple
    ratio: Optional[Callable] = field(default=None, compare=False, repr=False)
    enclose: Optional[Callable] = field(default=None, compare=False, repr=False)
    total: Optional[Q] = None

    def compare_magnitude(self, other: "Weight", sums=None) -> Optional[int]:
        """Sign of this weight minus the other's at a shared order; None when
        undecided.  Without two rational totals it reads the joint class sums
        of both Weights' terms: sums when the caller has built them."""
        if self.total is not None and other.total is not None:
            return (self.total > other.total) - (self.total < other.total)
        return _compare_sums(self.terms, other.terms, self.ratio, self.enclose, sums)

    def __str__(self) -> str:
        """The magnitude: the rational total; else the Cantor terms diam**s
        written diam^(log m/log invr), or the iso terms written
        c·(1/ln(1/r))^degree (c at degree 0); fractions bracketed."""
        if self.total is not None:
            return str(self.total)

        def atom(q):
            return str(q) if q.denominator == 1 else f"({q})"
        if isinstance(self.order, DimValue):
            return " + ".join(f"{atom(d)}^(log {m}/log {atom(invr)})" for d, m, invr in self.terms)
        if self.order == 0:
            return " + ".join(atom(c) for c, _ in self.terms)
        return " + ".join(f"{atom(c)}·(1/ln {atom(1 / r)})^{self.order}" for c, r in self.terms)

    def mean(self, tol: float) -> MeanValue:
        """sum(t * x) / sum(t) over terms and positions: direct for a rational total,
        else _weighted_mean in block order, whose enclosure sums classes in that order."""
        items = zip(self.terms, self.positions)
        if self.total is not None:
            # a point's term is 1: no Fraction product for it
            return MeanValue.exact(sum(x if t == 1 else t * x for t, x in items) / self.total)
        return _weighted_mean(items, self.ratio, self.enclose, tol)


def weight_of(h: BlockSet, kind: MeanKind) -> Weight:
    """The Weight of h under kind (not lis), kept with h (BlockSet.memo).

    Outside Dom(kind) it raises DomainViolation with the reason the mean
    reports as undefined.
    """
    w = _kept_weight(h, MeanKind(kind))
    if isinstance(w, str):
        raise DomainViolation(w)
    return w


def _kept_weight(h: BlockSet, kind: MeanKind):
    """h's Weight under kind, or the reason it has none (a str), kept with h."""
    return h.memo(("weight", kind), lambda: _weight(h, kind))


def _weight(h: BlockSet, kind: MeanKind):
    if kind is MeanKind.LIS:
        raise ValueError("lis has no weight: it compares accumulation bounds")
    order = order_of(h, kind)
    if kind is MeanKind.ARITH:
        return _point_weight(order, h) if order == 0 else "infinite set"
    if kind is MeanKind.ACC:
        if order == INFINITE_LEVEL:
            return "infinite level"
        return _point_weight(order, top_level(h)[1])
    if kind is MeanKind.ISO:
        if order == INFINITE_LEVEL:
            return _NOT_DENSE
        terms = iso_growth(h)[1]
        return Weight(order, tuple((c, r) for _, c, r in terms), tuple(a for a, _, _ in terms),
                      *_count_weights(order))
    if order.kind == "zero":
        if not h.is_finite:
            return "not an s-set: infinitely many points at dimension 0"
        return _point_weight(order, h)
    top = _top_blocks(h, order)
    centres = tuple((b.lo + b.hi) / 2 for b in top)  # of Cantor blocks by symmetry
    if order.kind == "one":
        lengths = tuple(b.hi - b.lo for b in top)
        return Weight(order, lengths, centres, total=sum(lengths, Q(0)))
    return Weight(order, tuple((b.hi - b.lo, b.pieces, 1 / b.ratio) for b in top), centres,
                  _weight_ratio, _iv_weight)


def _top_blocks(h: BlockSet, dim: DimValue) -> list:
    """h's blocks at dimension dim: at h's own dimension, the parts avg weighs."""
    return [b for b in h.blocks if (d := block_dim(b)) is dim or compare_dims(d, dim) == 0]


def _point_weight(at, h: BlockSet) -> Weight:
    pts = h.finite_points()
    return Weight(at, (1,) * len(pts), pts, total=len(pts))


# ---------------------------------------------------------------------------
# the five means


def mean_lis(h: BlockSet) -> MeanValue:
    bd = bounds(h)
    if bd.acc_inf is None:
        return MeanValue.undefined("finite set")
    return MeanValue.exact((bd.acc_inf + bd.acc_sup) / 2)


def mean_iso(h: BlockSet, cfg: LadderConfig = DEFAULT_CONFIG) -> MeanValue:
    """The isolated-point mean: the limit, as eps -> 0, of the mean of the
    isolated points outside the eps-neighborhood of the accumulation set.

    Over the iso_growth terms it is sum(w * anchor) / sum(w) with
    w = c * (1/ln(1/r))**degree, and the error at eps is O(1/ln(1/eps)).
    Terms whose ratios are powers of one another form a class whose weights
    are rational multiples of each other.  When every class has the same
    weighted mean (always so for one class) the value is exact; otherwise
    it is the midpoint of an enclosure narrowed below tol at doubling
    precision.
    """
    return weight_of(h, MeanKind.ISO).mean(cfg.tol)


def mean_of(h: BlockSet, kind: MeanKind, cfg: LadderConfig = DEFAULT_CONFIG) -> MeanValue:
    """Dispatch to the requested mean; domain violations become UNDEFINED.

    The value is computed once per kind and cfg for each set object and kept
    with it (BlockSet.memo), keyed by cfg's field values, which hash in C; a
    mean that raises is not kept.
    """
    kind = MeanKind(kind)
    return h.memo((kind, *vars(cfg).values()), lambda: _mean(h, kind, cfg))


def _mean(h: BlockSet, kind: MeanKind, cfg: LadderConfig) -> MeanValue:
    if h.is_empty:
        raise EmptyResult("mean of the empty set")
    if kind is MeanKind.LIS:
        return mean_lis(h)
    w = _kept_weight(h, kind)
    if isinstance(w, str):
        return MeanValue.undefined(w)
    return mean_iso(h, cfg) if kind is MeanKind.ISO else w.mean(cfg.tol)


def undefined_reason(h: BlockSet, kind: MeanKind) -> Optional[str]:
    """Why h is outside Dom(kind), as mean_of reports it, or None when h is
    inside: read from the accumulation bounds under lis, else from the kept
    Weight, so no mean is evaluated."""
    if h.is_empty:
        raise EmptyResult("mean of the empty set")
    kind = MeanKind(kind)
    if kind is MeanKind.LIS:
        return mean_lis(h).reason
    w = _kept_weight(h, kind)
    return w if isinstance(w, str) else None


# ---------------------------------------------------------------------------
# mean-relative liminf / limsup


@dataclass(frozen=True)
class KBounds:
    k_liminf: MeanValue
    k_limsup: MeanValue


def k_bounds(h: BlockSet, kind: MeanKind) -> KBounds:
    """Largest lower cut and smallest upper cut that leave the mean unchanged.

    The mean reads only h's top-order parts, and a cut that takes away an
    end of them moves it, so the bounds are their hull: the accumulation
    hull under lis, the blocks at the set's dimension under avg, and the
    top derived set under arith, acc and iso (h itself at level 0, else the
    anchors of the top-level blocks, which are the anchors of the iso
    terms).  No mean is evaluated, so no tol is read.
    """
    kind = MeanKind(kind)
    if (reason := undefined_reason(h, kind)) is not None:
        raise DomainViolation(f"mean is undefined: {reason}")
    if kind is MeanKind.LIS:
        bd = bounds(h)
        lo, hi = bd.acc_inf, bd.acc_sup
    else:
        parts = (_top_blocks(h, weight_of(h, kind).order) if kind is MeanKind.AVG
                 else top_level(h)[1].blocks)
        lo, hi = min(b.inf for b in parts), max(b.sup for b in parts)
    return KBounds(MeanValue.exact(lo), MeanValue.exact(hi))
