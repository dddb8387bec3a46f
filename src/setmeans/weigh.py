"""Equal-weight relations: when two sets behave like equal point masses.

The defining quantity is the defect K(H1 u (H2+x)) - (K(H1) + K(H2+x))/2.
Two sets have equal weight in bound when the defect stays bounded over all
translates, in limit when it vanishes as x grows, and in equality when it
is exactly zero once the sets are separated relative to the mean.

Under arith, acc, avg and iso the relations have one closed form: the sets
carry equal weights (``weight_of``: point count, level and top count,
dimension and measure, isolated-count growth), compared by
``compare_weights``.  Roundness compares the two halves of a set the same way.

The defect itself has a closed form at a translate x that separates the
hulls strictly: the union's mean is then read from the operands' own means,
weights and bounds, and equals the evaluation of H1 u (H2+x).  A sample
takes it when both operand means are exact and the mean is not iso (and,
under avg, the weights at a shared dimension are rational); every other
sample builds the union and the translate and measures them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as Q
from typing import Optional

from .classify import Answer, Method, Verdict, _closed, _translate_grid
from .errors import DomainViolation
from .means import (
    DEFAULT_CONFIG,
    LadderConfig,
    MeanKind,
    MeanValue,
    combine,
    compare_dims,
    compare_weight_terms,
    dimension_of,
    iso_coeff_compare,
    iso_growth,
    mean_of,
    measure_weight,
)
from .sets import BlockSet, bounds, top_level, translate_set, union_sets


class WeightKind(str, Enum):
    IN_BOUND = "bound"
    IN_LIMIT = "limit"
    IN_EQUALITY = "equality"


class Trend(str, Enum):
    BOUNDED = "BOUNDED"
    LINEAR_GROWTH = "LINEAR_GROWTH"
    TO_ZERO = "TO_ZERO"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class DefectCurve:
    samples: tuple[tuple[Q, MeanValue], ...]
    trend: Trend
    slope_estimate: Optional[float] = None


def weight_defect(h1: BlockSet, h2: BlockSet, kind: MeanKind, x: Q,
                  cfg: LadderConfig = DEFAULT_CONFIG) -> MeanValue:
    """K(H1 u (H2+x)) - (K(H1) + K(H2+x))/2, exact for the exact means.

    When H2+x lies strictly on one side of H1's hull, both operand means
    are exact and the mean is not iso, the three means come in closed form
    (_separated_means) and equal the evaluation of the union and the
    translate; otherwise those two sets are built and measured.
    """
    kind = MeanKind(kind)
    means = _separated_means(h1, h2, kind, x, cfg)
    if means is None:
        shifted = translate_set(h2, x)
        means = (mean_of(union_sets(h1, shifted), kind, cfg),
                 mean_of(h1, kind, cfg), mean_of(shifted, kind, cfg))
    return combine(lambda u, k1, k2: u - (k1 + k2) / 2, *means, tol=cfg.tol)


def _separated_means(h1: BlockSet, h2: BlockSet, kind: MeanKind, x: Q,
                     cfg: LadderConfig):
    """(K(H1 u (H2+x)), K(H1), K(H2+x)) without building a set, or None.

    With strictly disjoint hulls (touching ones can share a point) the
    union's derived sets are the operands' side by side.  Under lis its
    accumulation bounds are then the outer ones; under arith, acc and avg
    the operand of higher order (level, dimension) gives the mean, and at
    equal order the weights give (W1*K1 + W2*(K2+x)) / (W1 + W2).
    """
    if kind is MeanKind.ISO:
        return None
    b1, b2 = (h.memo("bounds", lambda h=h: bounds(h)) for h in (h1, h2))
    if not (b2.inf + x > b1.sup or b2.sup + x < b1.inf):
        return None
    m1, m2 = mean_of(h1, kind, cfg), mean_of(h2, kind, cfg)
    if not (m1.is_exact and m2.is_exact):
        return None
    k1, k2 = m1.value, m2.value + x
    if kind is MeanKind.LIS:
        k = (min(b1.acc_inf, b2.acc_inf + x) + max(b1.acc_sup, b2.acc_sup + x)) / 2
    else:
        w1, w2 = weight_of(h1, kind), weight_of(h2, kind)
        higher = 0
        if kind is MeanKind.ACC:
            (o1, w1), (o2, w2) = w1, w2
            higher = (o1 > o2) - (o1 < o2)
        elif kind is MeanKind.AVG:
            (d1, (how1, w1)), (d2, (how2, w2)) = w1, w2
            higher = compare_dims(d1, d2)
            if not higher and (how1, how2) != ("exact", "exact"):
                return None
        if higher:
            k = k1 if higher > 0 else k2
        else:
            k = (w1 * k1 + w2 * k2) / (w1 + w2)
    return MeanValue.exact(k), m1, MeanValue.exact(k2)


def classify_trend(samples, tol: float) -> tuple[Trend, Optional[float]]:
    """Trend of the defect over the positive tail of the grid.

    Linear growth is declared when the last three samples fit an affine
    model with a significant slope; vanishing when they decrease below
    tolerance; bounded when they are level.
    """
    pos = [(x, v) for x, v in samples if x > 0 and v.is_defined]
    if len(pos) < 3:
        return Trend.INCONCLUSIVE, None
    (x1, v1), (x2, v2), (x3, v3) = pos[-3:]
    f1, f2, f3 = (Q(v.as_float()) if not v.is_exact else v.value for v in (v1, v2, v3))
    qtol = Q(tol)
    if max(abs(f1), abs(f2), abs(f3)) <= qtol:
        return Trend.TO_ZERO, 0.0
    s1 = (f2 - f1) / (x2 - x1)
    s2 = (f3 - f2) / (x3 - x2)
    slope = float(s2)
    if abs(s2 - s1) <= max(qtol, abs(s2) / 1000) and abs(s2) > 10 * qtol:
        return Trend.LINEAR_GROWTH, slope
    if abs(f1) > abs(f2) > abs(f3) and abs(f3) < qtol:
        return Trend.TO_ZERO, slope
    if max(f1, f2, f3) - min(f1, f2, f3) <= 10 * qtol:
        return Trend.BOUNDED, slope
    return Trend.INCONCLUSIVE, slope


def defect_curve(h1: BlockSet, h2: BlockSet, kind: MeanKind,
                 cfg: LadderConfig = DEFAULT_CONFIG, xmax: int = 4) -> DefectCurve:
    samples = tuple(
        (x, weight_defect(h1, h2, kind, x, cfg)) for x in sorted(_translate_grid(xmax, h1, h2))
    )
    trend, slope = classify_trend(samples, cfg.tol)
    return DefectCurve(samples, trend, slope)


# ---------------------------------------------------------------------------
# closed-form relation testers


def equal_weight(h1: BlockSet, h2: BlockSet, kind: MeanKind, wkind: WeightKind,
                 cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Per-mean characterizations of the three equal-weight relations.

    Under lis they are read off the accumulation bounds; under every other
    mean the three coincide with equal weights (compare_weights).
    """
    kind, wkind = MeanKind(kind), WeightKind(wkind)
    if kind is MeanKind.LIS:
        b1, b2 = bounds(h1), bounds(h2)
        if b1.acc_inf is None or b2.acc_inf is None:
            raise DomainViolation("equal weight under lis needs infinite sets")
        if wkind is WeightKind.IN_BOUND:
            return _closed(Answer.YES, "any two sets have equal weight in bound under lis")
        diam1, diam2 = b1.acc_sup - b1.acc_inf, b2.acc_sup - b2.acc_inf
        if diam1 == diam2:
            return _closed(Answer.YES, f"equal accumulation diameter {diam1}")
        return _closed(Answer.NO, f"accumulation diameters differ: {diam1} vs {diam2}")
    if kind is not MeanKind.ISO:
        for h in (h1, h2):
            mv = mean_of(h, kind, cfg)
            if not mv.is_defined:
                raise DomainViolation(f"operand outside Dom({kind.value}): {mv.reason}")
    return compare_weights(weight_of(h1, kind), weight_of(h2, kind), kind)


def weight_of(h: BlockSet, kind: MeanKind):
    """The weight that decides equal weight under kind (not lis).

    arith: the point count; acc: (level, top-level point count); avg:
    (dimension, measure_weight at it); iso: iso_growth.  Computed once per
    kind for each set object and kept with it (BlockSet.memo).
    """
    kind = MeanKind(kind)
    return h.memo(("weight", kind), lambda: _weight(h, kind))


def _weight(h: BlockSet, kind: MeanKind):
    if kind is MeanKind.ARITH:
        return len(h.finite_points())
    if kind is MeanKind.ACC:
        lvl, top = top_level(h)
        return lvl, len(top.finite_points())
    if kind is MeanKind.AVG:
        dim = dimension_of(h)
        return dim, measure_weight(h, dim)
    if kind is MeanKind.ISO:
        return iso_growth(h)
    raise ValueError("lis has no weight: it compares accumulation bounds")


def compare_weights(w1, w2, kind: MeanKind) -> Verdict:
    """YES when the weight_of values of two sets in Dom(kind) are equal, NO
    when they differ, INCONCLUSIVE (by the sampler) when two sums of
    transcendental terms are not separated within the interval budget.
    kind is not lis."""
    kind = MeanKind(kind)
    if kind is MeanKind.ARITH:
        what, differ = f"point counts {w1} vs {w2}", w1 != w2
    elif kind is MeanKind.ACC:
        (l1, c1), (l2, c2) = w1, w2
        what, differ = f"levels {l1} vs {l2}, top-level counts {c1} vs {c2}", w1 != w2
    elif kind is MeanKind.AVG:
        (d1, (how, m1)), (d2, (_, m2)) = w1, w2
        if compare_dims(d1, d2):
            what, differ = "Hausdorff dimensions", True
        elif how == "terms":
            what, differ = "Cantor weights at the shared dimension", compare_weight_terms(m1, m2)
        else:
            what, differ = f"measures {m1} vs {m2} at the shared dimension", m1 != m2
    else:  # iso
        (d1, t1), (d2, t2) = w1, w2
        if d1 != d2:
            what, differ = f"count degrees {d1} vs {d2}", True
        else:
            what = f"leading count coefficients at degree {d1}"
            differ = iso_coeff_compare(t1, t2, d1)
    if differ is None:
        return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER, (f"{what}: numerically inseparable",))
    return _closed(Answer.NO if differ else Answer.YES,
                   f"{what}: {'differ' if differ else 'equal'}")


def transitivity_probe(h1: BlockSet, h2: BlockSet, h3: BlockSet, kind: MeanKind,
                       cfg: LadderConfig = DEFAULT_CONFIG, xmax: int = 4) -> DefectCurve:
    """Sample the four-term combination whose collapse makes the relation transitive."""
    kind = MeanKind(kind)
    samples = []
    for x in sorted(_translate_grid(xmax, h1, h2, h3)):
        h2x, h3xx = translate_set(h2, x), translate_set(h3, 2 * x)
        terms = (union_sets(h1, h2x), union_sets(h2x, h3xx), union_sets(h1, h3xx), h2x)
        samples.append((x, combine(lambda u12, u23, u13, m2: u12 + u23 - u13 - m2,
                                   *(mean_of(t, kind, cfg) for t in terms), tol=cfg.tol)))
    trend, slope = classify_trend(samples, cfg.tol)
    return DefectCurve(tuple(samples), trend, slope)
