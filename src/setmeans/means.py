"""Evaluators for the five means and for mean-relative liminf/limsup.

All means are exact rational computations except the isolated-point mean,
which is a ladder limit: it evaluates the arithmetic mean of the isolated
points outside a shrinking neighborhood of the accumulation set and reports
an approximate value once the ladder stabilizes.

The verdicts order Hausdorff dimensions log m / log(1/r), Cantor weights
sum diam**s and isolated-count coefficients sum (1/ln(1/r))**d through one
number layer: ``blocks._log_ratio`` decides exactly whether a rational is a
power of another (exponent vectors over a coprime basis, gcds only), and
``_separate`` orders what is left by mpmath.iv enclosures at 64 to 4096
bits.  Once that budget is spent the comparison is undecided:
IncomparableDimensions, or an INCONCLUSIVE verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import mpmath
from mpmath import iv

from .blocks import Cantor, Finite, Interval, PowerSums, Q, _log_ratio
from .errors import DomainViolation, EmptyResult, IncomparableDimensions
from .errors import CutNotRepresentable
from .sets import (
    BlockSet,
    bounds,
    cut_set,
    derived_set,
    top_level,
    INFINITE_LEVEL,
)


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
        return MeanValue("exact", value=Q(value))

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


def values_close(a: MeanValue, b: MeanValue, tol: float):
    """Equality of two mean values: exact when both exact, else within 2*tol.

    Returns None when either side is undefined (the comparison is vacuous).
    """
    if not a.is_defined or not b.is_defined:
        return None
    if a.is_exact and b.is_exact:
        return a.value == b.value
    return abs(a.as_float() - b.as_float()) <= 2 * tol


@dataclass(frozen=True)
class LadderConfig:
    eps0: Q = Q(1, 2)
    shrink: Q = Q(1, 2)
    max_steps: int = 60
    tol: float = 1e-9

    def __post_init__(self):
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if not (0 < self.shrink < 1):
            raise ValueError("shrink must lie in (0, 1)")
        if self.max_steps < 4:
            raise ValueError("max_steps must be at least 4")


DEFAULT_CONFIG = LadderConfig()


def arith_mean(values) -> Q:
    """Arithmetic mean with multiset semantics: duplicates are counted."""
    vals = list(values)
    if not vals:
        raise EmptyResult("arithmetic mean of nothing")
    return sum(vals, Q(0)) / len(vals)


# ---------------------------------------------------------------------------
# certified separation


def _separate(f, g) -> Optional[int]:
    """Certified sign of f - g (-1 or 1), or None once 4096 bits do not tell.

    f and g build mpmath.iv enclosures at the current iv.prec; they are
    evaluated at doubling precision until the intervals are disjoint.  Equal
    values never separate, so callers decide equality exactly first.
    """
    saved = iv.prec
    try:
        for bits in (64, 128, 256, 512, 1024, 2048, 4096):
            iv.prec = bits
            a, b = f(), g()
            if a.b < b.a:
                return -1
            if b.b < a.a:
                return 1
        return None
    finally:
        iv.prec = saved


def _iv_log(q):
    """Enclosure of ln q for a positive rational (or integer) q."""
    return iv.log(iv.mpf(q.numerator)) - iv.log(iv.mpf(q.denominator))


# ---------------------------------------------------------------------------
# Hausdorff dimension values


@dataclass(frozen=True)
class DimValue:
    kind: str  # "zero" | "log_ratio" | "one"
    m: Optional[int] = None
    invr: Optional[Q] = None


DIM_ZERO = DimValue("zero")
DIM_ONE = DimValue("one")


def block_dim(b) -> DimValue:
    if isinstance(b, Interval):
        return DIM_ONE
    if isinstance(b, Cantor):
        return DimValue("log_ratio", m=b.pieces, invr=1 / b.ratio)
    return DIM_ZERO


def compare_dims(d1: DimValue, d2: DimValue) -> int:
    """Three-way comparison of dimensions; exact or provably separated.

    Rational dimensions compare exactly, and m1 = m2**t with
    invr1 = invr2**t makes two dimensions equal.  Any other pair is
    separated by interval arithmetic; IncomparableDimensions is raised when
    its budget is spent.
    """
    order = {"zero": 0, "log_ratio": 1, "one": 2}
    if d1.kind != d2.kind:
        return -1 if order[d1.kind] < order[d2.kind] else 1
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
    sign = _separate(lambda: _iv_log(d1.m) / _iv_log(d1.invr),
                     lambda: _iv_log(d2.m) / _iv_log(d2.invr))
    if sign is None:
        raise IncomparableDimensions(
            f"cannot separate log {d1.m}/log {d1.invr} from log {d2.m}/log {d2.invr}"
        )
    return sign


def _mp_log_q(q: Q):
    return mpmath.log(q.numerator) - mpmath.log(q.denominator)


def dimension_of(h: BlockSet) -> DimValue:
    """Largest block dimension in the set."""
    if h.is_empty:
        raise EmptyResult("dimension of the empty set")
    best = DIM_ZERO
    for b in h.blocks:
        d = block_dim(b)
        if compare_dims(d, best) > 0:
            best = d
    return best


def _max_dim_blocks(h: BlockSet, dim: DimValue):
    out = []
    for b in h.blocks:
        if compare_dims(block_dim(b), dim) == 0:
            out.append(b)
    return out


def measure_weight(h: BlockSet, dim: DimValue):
    """Total weight of the blocks at the given dimension.

    Returns ("exact", Q) when the weight is rational, ("infinite", None)
    when a countably infinite set is weighed at dimension zero, and
    ("terms", ((diam, m, invr), ...)) for irrational Cantor weights, exposing
    the data needed for equality tests.
    """
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
    # a single family with power-related diameters still has a rational ratio
    # structure, but the absolute weight is irrational unless diam == 1
    return ("terms", terms)


def _compare_sums(terms1, terms2, ratio, enclose) -> Optional[int]:
    """Sign of sum(terms1) - sum(terms2) for positive terms; None when undecided.

    ratio(x, x0) is the rational x / x0 when the two terms are commensurable,
    else None.  Equal multisets of terms have equal sums.  When every term is
    commensurable with the first, the sums compare exactly in its units;
    otherwise the enclose(x) intervals are separated.
    """
    if sorted(terms1) == sorted(terms2):
        return 0
    q1 = [ratio(x, terms1[0]) for x in terms1]
    q2 = [ratio(x, terms1[0]) for x in terms2]
    if None in q1 or None in q2:
        return _separate(lambda: sum(map(enclose, terms1)), lambda: sum(map(enclose, terms2)))
    diff = sum(q1) - sum(q2)
    return (diff > 0) - (diff < 0)


def _weight_ratio(a, b) -> Optional[Q]:
    """The rational diam_a**s / diam_b**s of two (diam, m, invr) terms, or None.

    Both terms have one dimension s.  The ratio is 1 for equal diameters, and
    m**j in one (m, invr) family with diam_a == diam_b * invr**j for an
    integer j, because invr**s == m.
    """
    (da, m, invr), (db, mb, invrb) = a, b
    if da == db:
        return Q(1)
    if (m, invr) != (mb, invrb):
        return None
    j = _log_ratio(da / db, invr)
    return None if j is None or j.denominator != 1 else Q(m) ** j.numerator


def compare_weight_terms(w1, w2):
    """Sign of total(w1) - total(w2) for two "terms" weights; None when undecided.

    A term (diam, m, invr) weighs diam**s, s = log m / log invr.
    """
    def enclose(term):
        d, m, invr = term
        return iv.exp(_iv_log(m) / _iv_log(invr) * _iv_log(d))

    return _compare_sums(w1, w2, _weight_ratio, enclose)


def iso_coeff_compare(ratios1, ratios2, degree: int):
    """Compare leading count coefficients; None when undecided.

    Degree 0 compares plain point counts.  A coefficient is the sum of
    (1/ln(1/r))**degree over the ratios, and r == r0**t gives a term
    t**-degree times r0's.
    """
    if degree == 0:
        c1, c2 = ratios1[0], ratios2[0]
        return (c1 > c2) - (c1 < c2)

    def ratio(r, r0):
        t = _log_ratio(r, r0)
        return None if t is None else t**-degree

    return _compare_sums(ratios1, ratios2, ratio, lambda r: 1 / _iv_log(1 / r) ** degree)


# ---------------------------------------------------------------------------
# the five means


def mean_arith(h: BlockSet) -> MeanValue:
    if h.is_empty:
        raise EmptyResult("mean of the empty set")
    if not h.is_finite:
        return MeanValue.undefined("infinite set")
    return MeanValue.exact(arith_mean(h.finite_points()))


def mean_lis(h: BlockSet) -> MeanValue:
    if h.is_empty:
        raise EmptyResult("mean of the empty set")
    bd = bounds(h)
    if bd.acc_inf is None:
        return MeanValue.undefined("finite set")
    return MeanValue.exact((bd.acc_inf + bd.acc_sup) / 2)


def mean_acc(h: BlockSet) -> MeanValue:
    if h.is_empty:
        raise EmptyResult("mean of the empty set")
    lev, top = top_level(h)
    if lev == INFINITE_LEVEL:
        return MeanValue.undefined("infinite level")
    return MeanValue.exact(arith_mean(top.finite_points()))


def iso_eligible(h: BlockSet) -> bool:
    """Structural domain check: the isolated points must be dense in the set."""
    return not any(isinstance(b, (Interval, Cantor)) for b in h.blocks)


def mean_iso(h: BlockSet, cfg: LadderConfig = DEFAULT_CONFIG) -> MeanValue:
    """Ladder evaluation of the isolated-point mean.

    The recorded ladder value at a refinement step is the mean of the points
    the step added (a count-weighted difference quotient of the partial
    sums).  For geometric blocks the raw partial means drift like 1/N while
    the increments converge geometrically, which is what makes the default
    60-step ladder reach tolerance.  Convergence is declared when three
    consecutive recorded values agree pairwise within tol.

    Each candidate's exact distance to the accumulation set is computed
    once; the shrinking thresholds then admit points from a heap, so a
    full ladder costs one distance per point rather than one per step.
    """
    import heapq

    from .blocks import block_min_dist, tower_outer_points

    if h.is_empty:
        raise EmptyResult("mean of the empty set")
    if not iso_eligible(h):
        raise DomainViolation("set has interval or cantor parts; isolated points are not dense")
    if h.is_finite:
        return MeanValue.approximate(float(arith_mean(h.finite_points())), cfg.tol)
    acc = derived_set(h)
    eps = cfg.eps0
    eps_prev: Q | None = None
    recorded: list[Q] = []
    count = 0
    total = Q(0)
    seen: set[Q] = set()
    pending: list[tuple[Q, Q]] = []  # (-distance, point) max-heap
    tol = Q(cfg.tol)  # exact binary value of the float tolerance
    for step in range(cfg.max_steps):
        fresh: list[Q] = []
        for b in h.blocks:
            if isinstance(b, Finite):
                if step == 0:
                    fresh.extend(b.points)
            else:
                fresh.extend(tower_outer_points(b, eps, eps_prev))
        for p in fresh:
            if p in seen:
                continue
            seen.add(p)
            d = min(block_min_dist(a, p) for a in acc.blocks)
            if d > 0:
                heapq.heappush(pending, (-d, p))
        added_count = 0
        added_sum = Q(0)
        while pending and -pending[0][0] >= eps:
            _, p = heapq.heappop(pending)
            added_count += 1
            added_sum += p
        if added_count:
            count += added_count
            total += added_sum
            recorded.append(added_sum / added_count)
            if len(recorded) >= 3:
                a, b, c = recorded[-3:]
                if abs(a - b) < tol and abs(b - c) < tol and abs(a - c) < tol:
                    return MeanValue.approximate(float(recorded[-1]), cfg.tol)
        eps_prev = eps
        eps *= cfg.shrink
    return MeanValue.undefined(f"no convergence after {cfg.max_steps} ladder steps")


def mean_avg(h: BlockSet, cfg: LadderConfig = DEFAULT_CONFIG) -> MeanValue:
    """Hausdorff-measure average at the set's maximal dimension.

    Lower-dimensional blocks carry weight zero.  The result is exact
    whenever the weights have rational ratios (always at dimensions 0 and 1,
    and for Cantor families whose diameters are equal or related by integer
    powers of 1/r); otherwise the weights are evaluated numerically.
    """
    if h.is_empty:
        raise EmptyResult("mean of the empty set")
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
    # Cantor blocks at the maximal dimension; centers by symmetry
    centers = [(b.lo + b.hi) / 2 for b in at_max]
    diams = [b.hi - b.lo for b in at_max]
    terms = [(d, b.pieces, 1 / b.ratio) for d, b in zip(diams, at_max)]
    weights = [_weight_ratio(t, terms[0]) for t in terms]
    if None not in weights:
        total = sum(weights, Q(0))
        return MeanValue.exact(sum(w * c for w, c in zip(weights, centers)) / total)
    with mpmath.workprec(200):
        s = mpmath.log(dim.m) / _mp_log_q(dim.invr)
        ws = [mpmath.exp(s * _mp_log_q(d)) for d in diams]
        num = mpmath.fsum(w * mpmath.mpf(c.numerator) / c.denominator for w, c in zip(ws, centers))
        den = mpmath.fsum(ws)
        return MeanValue.approximate(float(num / den), cfg.tol)


def mean_of(h: BlockSet, kind: MeanKind, cfg: LadderConfig = DEFAULT_CONFIG) -> MeanValue:
    """Dispatch to the requested mean; domain violations become UNDEFINED."""
    kind = MeanKind(kind)
    if kind is MeanKind.ARITH:
        return mean_arith(h)
    if kind is MeanKind.LIS:
        return mean_lis(h)
    if kind is MeanKind.ACC:
        return mean_acc(h)
    if kind is MeanKind.ISO:
        try:
            return mean_iso(h, cfg)
        except DomainViolation as exc:
            return MeanValue.undefined(str(exc))
    return mean_avg(h, cfg)


# ---------------------------------------------------------------------------
# mean-relative liminf / limsup


@dataclass(frozen=True)
class KBounds:
    k_liminf: MeanValue
    k_limsup: MeanValue
    skipped: tuple[str, ...] = ()


def _cut_candidates(h: BlockSet) -> list[Q]:
    cands: set[Q] = set()
    cur = h
    for _ in range(64):
        for b in cur.blocks:
            cands.add(b.inf)
            cands.add(b.sup)
            if isinstance(b, Finite):
                cands.update(b.points)
            elif isinstance(b, PowerSums):
                cands.add(b.anchor)
        nxt = derived_set(cur)
        if nxt.is_empty or nxt == cur:
            break
        cur = nxt
    return sorted(cands)


def k_bounds(h: BlockSet, kind: MeanKind, cfg: LadderConfig = DEFAULT_CONFIG) -> KBounds:
    """Largest lower cut and smallest upper cut that leave the mean unchanged.

    The mean of a cut set is piecewise constant-or-affine between block
    parameters, so a lattice of the parameters plus midpoints captures every
    regime; a midpoint witnessing an unchanged open interval pushes the
    bound to the base candidate beyond it.
    """
    base = _cut_candidates(h)
    reference = mean_of(h, kind, cfg)
    if not reference.is_defined:
        raise DomainViolation(f"mean is undefined: {reference.reason}")
    lattice: list[tuple[Q, bool]] = []
    for i, x in enumerate(base):
        lattice.append((x, True))
        if i + 1 < len(base):
            lattice.append(((x + base[i + 1]) / 2, False))
    skipped: list[str] = []

    def equal_after(x: Q, keep_low: bool):
        try:
            piece = cut_set(h, x, keep_low)
        except CutNotRepresentable:
            skipped.append(f"cut at {x} not representable")
            return None
        if piece.is_empty:
            skipped.append(f"cut at {x} empties the set")
            return None
        val = mean_of(piece, kind, cfg)
        if not val.is_defined:
            skipped.append(f"cut at {x} leaves the domain: {val.reason}")
            return None
        return values_close(reference, val, cfg.tol)

    # liminf: scan upward over K(H^{+x}) while it matches
    last_equal = None
    follow_base = None
    for i, (x, is_base) in enumerate(lattice):
        res = equal_after(x, keep_low=False)
        if res is None:
            continue
        if res:
            last_equal = (x, is_base)
            follow_base = next(
                (bx for bx, bb in lattice[i + 1 :] if bb), None
            )
        else:
            break
    if last_equal is None:
        k_liminf = MeanValue.undefined("no representable unchanged lower cut")
    else:
        x, is_base = last_equal
        k_liminf = MeanValue.exact(x if is_base else follow_base)

    # limsup: scan downward over K(H^{-x}) while it matches
    last_equal = None
    follow_base = None
    for i in range(len(lattice) - 1, -1, -1):
        x, is_base = lattice[i]
        res = equal_after(x, keep_low=True)
        if res is None:
            continue
        if res:
            last_equal = (x, is_base)
            follow_base = next(
                (lattice[j][0] for j in range(i - 1, -1, -1) if lattice[j][1]), None
            )
        else:
            break
    if last_equal is None:
        k_limsup = MeanValue.undefined("no representable unchanged upper cut")
    else:
        x, is_base = last_equal
        k_limsup = MeanValue.exact(x if is_base else follow_base)

    return KBounds(k_liminf, k_limsup, tuple(skipped))
