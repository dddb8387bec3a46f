"""Evaluators for the five means and for mean-relative liminf/limsup.

All means are exact rational computations except the isolated-point mean,
which is a ladder limit: it evaluates the arithmetic mean of the isolated
points outside a shrinking neighborhood of the accumulation set and reports
an approximate value once the ladder stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import mpmath

from .blocks import Cantor, Finite, Interval, PowerSums, Q
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


def values_close(a: MeanValue, b: MeanValue, tol: float, slack: float = 2.0):
    """Equality of two mean values: exact when both exact, else within slack*tol.

    Returns None when either side is undefined (the comparison is vacuous).
    """
    if not a.is_defined or not b.is_defined:
        return None
    if a.is_exact and b.is_exact:
        return a.value == b.value
    return abs(a.as_float() - b.as_float()) <= slack * tol


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


def _rational_log_ratio(m: int, invr: Q, max_den: int = 48):
    """p/q with m**q == invr**p, if the dimension is rational; else None."""
    for q in range(1, max_den + 1):
        target = Q(m) ** q
        power = Q(1)
        for p in range(1, q + 1):
            power *= invr
            if power == target:
                return Q(p, q)
            if power > target:
                break
    return None


def _int_root(n: int, j: int):
    """The exact j-th root of a positive integer, or None.

    Integer Newton iteration from a power of two at or above the root, so
    integers of any size work (a float root overflows past about 2**1024).
    """
    x = 1 << -(-n.bit_length() // j)
    while True:
        y = ((j - 1) * x + n // x ** (j - 1)) // j
        if y >= x:
            break
        x = y
    return x if x**j == n else None


def _canonical_log_ratio(m: int, invr: Q):
    """Strip a common perfect power: log m**j / log v**j == log m / log v."""
    for j in range(32, 1, -1):
        rm = _int_root(m, j)
        if rm is None or rm == 1:
            continue
        rp = _int_root(invr.numerator, j)
        rq = _int_root(invr.denominator, j)
        if rp is not None and rq is not None:
            return _canonical_log_ratio(rm, Q(rp, rq))
    return m, invr


def compare_dims(d1: DimValue, d2: DimValue) -> int:
    """Three-way comparison of dimensions; exact or provably separated.

    Structurally equal values compare equal at once; log-ratio pairs are
    first tested for a shared rational value, then separated by interval
    arithmetic at growing precision.
    """
    order = {"zero": 0, "log_ratio": 1, "one": 2}
    if d1.kind != d2.kind:
        return -1 if order[d1.kind] < order[d2.kind] else 1
    if d1.kind != "log_ratio":
        return 0
    if d1 == d2:
        return 0
    if _canonical_log_ratio(d1.m, d1.invr) == _canonical_log_ratio(d2.m, d2.invr):
        return 0
    r1 = _rational_log_ratio(d1.m, d1.invr)
    r2 = _rational_log_ratio(d2.m, d2.invr)
    if r1 is not None and r2 is not None:
        return (r1 > r2) - (r1 < r2)
    for bits in (64, 128, 256, 512, 1024, 2048, 4096):
        with mpmath.workprec(bits):
            v1 = mpmath.log(d1.m) / _mp_log_q(d1.invr)
            v2 = mpmath.log(d2.m) / _mp_log_q(d2.invr)
            gap = abs(v1 - v2)
            if gap > mpmath.mpf(2) ** (20 - bits):
                return -1 if v1 < v2 else 1
    raise IncomparableDimensions(
        f"cannot separate log {d1.m}/log {d1.invr} from log {d2.m}/log {d2.invr}"
    )


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


def compare_weight_terms(w1, w2):
    """Sign of total(w1) - total(w2) for two "terms" weights; None when inseparable.

    A term (diam, m, invr) weighs diam**s, s = log m / log invr, at 240 bits.
    """
    with mpmath.workprec(240):
        def total(terms):
            return mpmath.fsum(
                mpmath.exp((mpmath.log(m) / _mp_log_q(invr)) * _mp_log_q(d))
                for d, m, invr in terms
            )
        t1, t2 = total(w1), total(w2)
        if abs(t1 - t2) > mpmath.mpf(2) ** -180:
            return -1 if t1 < t2 else 1
    return None


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
    if len(set(diams)) == 1:
        return MeanValue.exact(arith_mean(centers))
    same_family = len({(b.pieces, b.ratio) for b in at_max}) == 1
    if same_family:
        ratios = _power_ratios(diams, 1 / at_max[0].ratio)
        if ratios is not None:
            m = Q(at_max[0].pieces)
            weights = [m**j for j in ratios]
            total = sum(weights, Q(0))
            return MeanValue.exact(sum(w * c for w, c in zip(weights, centers)) / total)
    with mpmath.workprec(200):
        s = mpmath.log(dim.m) / _mp_log_q(dim.invr)
        ws = [mpmath.exp(s * _mp_log_q(d)) for d in diams]
        num = mpmath.fsum(w * mpmath.mpf(c.numerator) / c.denominator for w, c in zip(ws, centers))
        den = mpmath.fsum(ws)
        return MeanValue.approximate(float(num / den), cfg.tol)


def _power_ratios(diams, invr: Q):
    """Exponents j_i with diam_i == diam_0 * invr**j_i, or None."""
    base = diams[0]
    out = []
    for d in diams:
        q = d / base
        j = 0
        while q > 1:
            q /= invr
            j += 1
            if j > 512:
                return None
        while q < 1:
            q *= invr
            j -= 1
            if j < -512:
                return None
        if q != 1:
            return None
        out.append(j)
    return out


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
