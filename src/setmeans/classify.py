"""Small-set and big-set classification relative to a mean.

A set V is small to H when unioning or removing any translate of V leaves
the mean of H unchanged; V is big to H when H is small to V.  For each of
the five means the family has a closed form (finiteness, level comparison,
dimension comparison, or isolated-count growth), so verdicts are definitive;
a sampling probe over a translate grid supplies the evidence trail.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as Q

import mpmath

from .blocks import Cantor, Finite, Interval, PowerSums
from .errors import DomainViolation, EmptyResult, IntersectionNotRepresentable
from .means import (
    DEFAULT_CONFIG,
    LadderConfig,
    MeanKind,
    compare_dims,
    dimension_of,
    iso_eligible,
    mean_of,
    values_close,
)
from .sets import (
    BlockSet,
    bounds,
    contains,
    derived_set,
    diameter,
    intersect,
    isolated_outside,
    level,
    normalize_blocks,
    translate_set,
    union_sets,
)


class Answer(str, Enum):
    YES = "YES"
    NO = "NO"
    INCONCLUSIVE = "INCONCLUSIVE"


class Method(str, Enum):
    CLOSED_FORM = "CLOSED_FORM"
    SAMPLER = "SAMPLER"


@dataclass(frozen=True)
class Verdict:
    answer: Answer
    method: Method
    evidence: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method is Method.CLOSED_FORM and self.answer is Answer.INCONCLUSIVE:
            raise ValueError("closed-form verdicts must be definitive")
        object.__setattr__(self, "evidence", tuple(self.evidence))


def _closed(answer: Answer, *evidence: str) -> Verdict:
    return Verdict(answer, Method.CLOSED_FORM, tuple(evidence))


# ---------------------------------------------------------------------------
# isolated-count growth (the ISO closed form)


def iso_growth(h: BlockSet):
    """(degree, ratios) of the isolated-point count of the set.

    The number of points outside the eps-neighborhood of the accumulation
    set grows like a polynomial of degree = the deepest tower level in
    log(1/eps) (degree 1 for plain sequences, 0 for finite sets); the
    leading coefficient is sum (1/log(1/r))^degree / degree! over the
    blocks at that level, so the returned ratio multiset determines it.
    """
    degree = 0
    for b in h.blocks:
        if isinstance(b, PowerSums):
            degree = max(degree, b.level)
        elif isinstance(b, (Interval, Cantor)):
            raise DomainViolation("interval or cantor parts have no isolated points")
    if degree == 0:
        return 0, (Q(len(h.finite_points())),)
    ratios = [b.ratio for b in h.blocks if isinstance(b, PowerSums) and b.level == degree]
    return degree, tuple(sorted(ratios))


def iso_coeff_compare(ratios1, ratios2, degree: int):
    """Compare leading count coefficients; None when numerically too close.

    Degree 0 compares plain point counts.  Equal ratio multisets are equal
    outright; otherwise the sums of (1/log(1/r))^degree are separated
    numerically.
    """
    if degree == 0:
        c1, c2 = ratios1[0], ratios2[0]
        return (c1 > c2) - (c1 < c2)
    if tuple(sorted(ratios1)) == tuple(sorted(ratios2)):
        return 0
    with mpmath.workprec(240):
        def coeff(ratios):
            return mpmath.fsum(
                (1 / (mpmath.log(r.denominator) - mpmath.log(r.numerator))) ** degree
                for r in ratios
            )

        c1, c2 = coeff(ratios1), coeff(ratios2)
        gap = abs(c1 - c2)
        if gap > mpmath.mpf(2) ** -180:
            return -1 if c1 < c2 else 1
    return None


def iso_ratio_trace(v: BlockSet, h: BlockSet, cfg: LadderConfig, steps: int = 12):
    """Count ratios n_eps/m_eps along the ladder, as evidence."""
    out = []
    eps = cfg.eps0
    for _ in range(steps):
        n = len(isolated_outside(v, eps))
        m = len(isolated_outside(h, eps))
        out.append((eps, n, m))
        eps *= cfg.shrink
    return out


# ---------------------------------------------------------------------------
# sampling probe


def _translate_grid(xmax: int, *hs: BlockSet) -> list[Q]:
    """The sampled translates: base * 10**j for j = 0..xmax, then their negatives.

    The base is the largest diameter of the sets, or 1 when all are points.
    """
    d = max(diameter(h) for h in hs)
    base = d if d > 0 else Q(1)
    xs = [base * 10**j for j in range(xmax + 1)]
    return xs + [-x for x in xs]


def _remove(h: BlockSet, s: BlockSet):
    """h minus s when representable: whole-block matches or finite points."""
    if s.is_empty:
        return h
    remaining = list(h.blocks)
    loose_points: set[Q] = set()
    for b in s.blocks:
        if b in remaining:
            remaining.remove(b)
        elif isinstance(b, Finite):
            loose_points.update(b.points)
        else:
            return None
    out = []
    for b in remaining:
        if isinstance(b, Finite):
            pts = tuple(p for p in b.points if p not in loose_points)
            hit = set(b.points) & loose_points
            loose_points -= hit
            if pts:
                out.append(Finite(pts))
        else:
            out.append(b)
    if loose_points:
        # a removed point sits inside an infinite block: not representable
        for b in out:
            if any(b.inf <= p <= b.sup for p in loose_points):
                return None
    return normalize_blocks(out)


def sampler_probe(v: BlockSet, h: BlockSet, kind: MeanKind, cfg: LadderConfig,
                  xmax: int = 3) -> Verdict:
    """Evaluate the defining equalities of smallness at sampled translates.

    Can only refute (a witness x where the mean moves) or stay inconclusive;
    skipped non-representable probes are recorded in the evidence.
    """
    ref = mean_of(h, kind, cfg)
    evidence = []
    witness = None
    for x in _translate_grid(xmax, h):
        union = union_sets(h, translate_set(v, x))
        lhs = mean_of(union, kind, cfg)
        eq = values_close(ref, lhs, cfg.tol)
        if eq is None:
            evidence.append(f"x={x}: union left the domain ({lhs.reason}); skipped")
        else:
            evidence.append(f"x={x}: K(H u V+x)={lhs} vs K(H)={ref}")
            if not eq:
                witness = x
                break
        try:
            inter = intersect(h, translate_set(v, x))
        except IntersectionNotRepresentable:
            evidence.append(f"x={x}: difference not representable; skipped")
            continue
        diff = _remove(h, inter)
        if diff is None:
            evidence.append(f"x={x}: removal not representable; skipped")
            continue
        if diff.is_empty:
            evidence.append(f"x={x}: removal empties the set; skipped")
            continue
        rhs = mean_of(diff, kind, cfg)
        eq = values_close(ref, rhs, cfg.tol)
        if eq is None:
            evidence.append(f"x={x}: difference left the domain ({rhs.reason}); skipped")
        else:
            evidence.append(f"x={x}: K(H - (V+x))={rhs}")
            if not eq:
                witness = x
                break
    if witness is not None:
        return Verdict(Answer.NO, Method.SAMPLER, tuple(evidence))
    return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER, tuple(evidence))


# ---------------------------------------------------------------------------
# the classifiers


def _require_in_domain(h: BlockSet, kind: MeanKind, cfg: LadderConfig, role: str):
    # the ladder mean's domain is structural; non-convergence is not an exit
    if kind is MeanKind.ISO:
        if h.is_empty or not iso_eligible(h):
            raise DomainViolation(f"{role} set is outside Dom(iso)")
        return
    if not mean_of(h, kind, cfg).is_defined:
        raise DomainViolation(f"{role} set is outside Dom({kind.value})")


def is_small_for(v: BlockSet, h: BlockSet, kind: MeanKind,
                 cfg: LadderConfig = DEFAULT_CONFIG, sampler: bool = False) -> Verdict:
    """Is V small to H: does any translate of V leave K(H) unchanged?"""
    kind = MeanKind(kind)
    _require_in_domain(h, kind, cfg, "reference")
    if v.is_empty:
        return _closed(Answer.YES, "empty set is small to everything")
    verdict = _closed_small(v, h, kind, cfg)
    if sampler and verdict.answer is not Answer.INCONCLUSIVE:
        probe = sampler_probe(v, h, kind, cfg)
        verdict = Verdict(verdict.answer, verdict.method,
                          verdict.evidence + probe.evidence)
    return verdict


def _closed_small(v: BlockSet, h: BlockSet, kind: MeanKind, cfg: LadderConfig) -> Verdict:
    if kind is MeanKind.ARITH:
        if v.is_finite:
            return _closed(Answer.NO, f"|V|={len(v.finite_points())} > 0 shifts a finite mean")
        return _closed(Answer.NO, "infinite V leaves the union outside the domain")
    if kind is MeanKind.LIS:
        if v.is_finite:
            return _closed(Answer.YES, "finite sets never move accumulation bounds")
        return _closed(Answer.NO, "an infinite V placed far away moves an accumulation bound")
    if kind is MeanKind.ACC:
        if v.is_finite:
            return _closed(Answer.YES, "finite sets have level 0 and no top-level points")
        lv, lh = level(v), level(h)
        if lv < lh:
            return _closed(Answer.YES, f"lev(V)={lv} < lev(H)={lh}")
        return _closed(Answer.NO, f"lev(V)={lv} >= lev(H)={lh}")
    if kind is MeanKind.AVG:
        dv, dh = dimension_of(v), dimension_of(h)
        cmp = compare_dims(dv, dh)
        if cmp < 0:
            return _closed(Answer.YES, "V carries zero measure at H's dimension")
        return _closed(Answer.NO, "V carries positive (or dominating) measure at H's dimension")
    # ISO: the count-growth degree decides the ladder ratio limit
    if not iso_eligible(v):
        return _closed(Answer.NO, "V has interval or cantor parts, unions leave the domain")
    dv, rv = iso_growth(v)
    dh, rh = iso_growth(h)
    trace = iso_ratio_trace(v, h, cfg)
    trace_str = "ratio trace " + ", ".join(f"{n}/{m}" for _, n, m in trace)
    if dv < dh:
        return _closed(Answer.YES, f"count degree {dv} < {dh}: n/m -> 0", trace_str)
    if dv > dh:
        return _closed(Answer.NO, f"count degree {dv} > {dh}: n/m -> infinity", trace_str)
    return _closed(Answer.NO, f"equal count degree {dv}: n/m has a positive finite limit",
                   trace_str)


def is_big_for(v: BlockSet, h: BlockSet, kind: MeanKind,
               cfg: LadderConfig = DEFAULT_CONFIG, sampler: bool = False) -> Verdict:
    """Is V big to H; by duality, exactly when H is small to V.

    The big family only contains domain members, so an out-of-domain
    candidate is a definitive no rather than an error.
    """
    kind = MeanKind(kind)
    _require_in_domain(h, kind, cfg, "reference")
    try:
        _require_in_domain(v, kind, cfg, "candidate")
    except DomainViolation:
        return _closed(Answer.NO, f"a set outside Dom({kind.value}) is never big")
    inner = is_small_for(h, v, kind, cfg, sampler=sampler)
    return Verdict(inner.answer, inner.method,
                   ("via duality: H small to V <=> V big to H",) + inner.evidence)


def comparable(h: BlockSet, v: BlockSet, kind: MeanKind,
               cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Neither small nor big: the two sets weigh against each other.

    Comparability is only defined between two domain members.
    """
    kind = MeanKind(kind)
    _require_in_domain(h, kind, cfg, "reference")
    _require_in_domain(v, kind, cfg, "candidate")
    small = is_small_for(v, h, kind, cfg)
    big = is_big_for(v, h, kind, cfg)
    if Answer.INCONCLUSIVE in (small.answer, big.answer):
        return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER,
                       small.evidence + big.evidence)
    if small.answer is Answer.NO and big.answer is Answer.NO:
        return _closed(Answer.YES, *(small.evidence + big.evidence))
    return _closed(Answer.NO, *(small.evidence + big.evidence))


def k_disjoint(h1: BlockSet, h2: BlockSet, kind: MeanKind, weak: bool = False,
               cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Is the intersection small (globally, or to both sets for the weak form)?"""
    kind = MeanKind(kind)
    inter = intersect(h1, h2)
    if inter.is_empty:
        return _closed(Answer.YES, "intersection is empty")
    if weak:
        a = is_small_for(inter, h1, kind, cfg)
        b = is_small_for(inter, h2, kind, cfg)
        if a.answer is Answer.YES and b.answer is Answer.YES:
            return _closed(Answer.YES, *(a.evidence + b.evidence))
        if Answer.NO in (a.answer, b.answer):
            return _closed(Answer.NO, *(a.evidence + b.evidence))
        return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER, a.evidence + b.evidence)
    if kind is MeanKind.ARITH:
        return _closed(Answer.NO, "only the empty set is globally small for finite means")
    if kind is MeanKind.AVG:
        if any(isinstance(b, Interval) for b in inter.blocks):
            return _closed(Answer.NO, "intersection has positive Lebesgue measure")
        return _closed(Answer.YES, "intersection is Lebesgue null")
    # LIS, ACC, ISO: the globally small family is the finite sets
    if inter.is_finite:
        return _closed(Answer.YES, f"intersection is finite ({len(inter.finite_points())} points)")
    return _closed(Answer.NO, "intersection is infinite")


# ---------------------------------------------------------------------------
# constructive witnesses for the isolated-point mean


def build_iso_witness(h2: BlockSet, which: str, depth: int,
                      cfg: LadderConfig = DEFAULT_CONFIG) -> BlockSet:
    """A finite stage-truncation of the small/big witness construction.

    BIG places n * m_(1/n) fresh points at distance [1/n, 1/(n-1)) below the
    least accumulation point at stage n; SMALL places one point per stage at
    rapidly sparser cut-offs, chosen so the count ratio keeps shrinking.
    """
    witness, _ = build_iso_witness_staged(h2, which, depth, cfg)
    return witness


def build_iso_witness_staged(h2: BlockSet, which: str, depth: int,
                             cfg: LadderConfig = DEFAULT_CONFIG):
    """Witness plus the stage cut-offs at which its count ratio is read."""
    if which not in ("small", "big"):
        raise ValueError("which must be 'small' or 'big'")
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if h2.is_empty:
        raise EmptyResult("cannot build a witness against the empty set")
    if not iso_eligible(h2):
        raise DomainViolation("reference set is outside the isolated-point domain")
    acc = derived_set(h2)
    if acc.is_empty:
        raise DomainViolation("reference set has no accumulation points")
    a = bounds(h2).acc_inf
    pts: list[Q] = []
    stages: list[Q] = []

    def place(dist_lo: Q, dist_hi: Q, count: int):
        # below the least accumulation point the distance to the whole
        # accumulation set is exactly the offset, so the band is exact
        placed = []
        step = (dist_hi - dist_lo) / (count + 1)
        for j in range(1, count + 1):
            t = dist_lo + j * step
            guard = 0
            while contains(h2, a - t) or (a - t) in pts:
                t += step / 131
                guard += 1
                if guard > 1000 or t >= dist_hi:
                    raise DomainViolation("could not place a witness point in the band")
            pts.append(a - t)
            placed.append(t)
        return placed

    if which == "big":
        for n in range(2, depth + 2):
            m = len(isolated_outside(h2, Q(1, n)))
            if m == 0:
                continue
            place(Q(1, n), Q(1, n - 1), n * m)
            stages.append(Q(1, n))
    else:
        prev_ratio = None
        k = 1
        for i in range(1, depth + 1):
            k = max(k + 1, 2)
            while True:
                m = len(isolated_outside(h2, Q(1, k)))
                if m > 0 and Q(i, m) < Q(1, i + 1) and (
                    prev_ratio is None or Q(i, m) < prev_ratio
                ):
                    break
                k *= 2
            t = place(Q(1, k + 1), Q(1, k), 1)[0]
            stages.append(t)
            # the realized ratio at the placed distance bounds the next stage
            prev_ratio = Q(i, len(isolated_outside(h2, t)))
    if not pts:
        raise DomainViolation("no stage produced any points at this depth")
    return normalize_blocks([Finite(tuple(pts))]), tuple(stages)


def witness_stage_ratios(witness: BlockSet, h2: BlockSet, stages):
    """Recount n_eps/m_eps at the stage cut-offs, straight from definitions."""
    from .blocks import block_dist_at_least

    acc = derived_set(h2)
    out = []
    for eps in stages:
        n = sum(
            1
            for p in witness.finite_points()
            if all(block_dist_at_least(b, p, eps) for b in acc.blocks)
        )
        m = len(isolated_outside(h2, eps))
        if m:
            out.append((eps, Q(n, m)))
    return out
