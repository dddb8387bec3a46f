"""Equal-weight relations: when two sets behave like equal point masses.

The defining quantity is the defect K(H1 u (H2+x)) - (K(H1) + K(H2+x))/2.
Two sets have equal weight in bound when the defect stays bounded over all
translates, in limit when it vanishes as x grows, and in equality when it
is exactly zero once the sets are separated relative to the mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as Q
from typing import Optional

from .classify import (
    Answer,
    Method,
    Verdict,
    _closed,
    iso_growth,
    _translate_grid,
)
from .errors import DomainViolation
from .means import (
    DEFAULT_CONFIG,
    LadderConfig,
    MeanKind,
    MeanValue,
    compare_dims,
    compare_weight_terms,
    dimension_of,
    iso_coeff_compare,
    iso_eligible,
    mean_of,
    measure_weight,
)
from .sets import (
    BlockSet,
    bounds,
    top_level,
    translate_set,
    union_sets,
)


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
    """K(H1 u (H2+x)) - (K(H1) + K(H2+x))/2, exact for the exact means."""
    kind = MeanKind(kind)
    shifted = translate_set(h2, x)
    union = union_sets(h1, shifted)
    k_union = mean_of(union, kind, cfg)
    k1 = mean_of(h1, kind, cfg)
    k2 = mean_of(shifted, kind, cfg)
    if not (k_union.is_defined and k1.is_defined and k2.is_defined):
        reason = next(v.reason for v in (k_union, k1, k2) if not v.is_defined)
        return MeanValue.undefined(reason)
    if k_union.is_exact and k1.is_exact and k2.is_exact:
        return MeanValue.exact(k_union.value - (k1.value + k2.value) / 2)
    tol = cfg.tol
    return MeanValue.approximate(
        k_union.as_float() - (k1.as_float() + k2.as_float()) / 2, 2 * tol
    )


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
    """Per-mean characterizations of the three equal-weight relations."""
    kind, wkind = MeanKind(kind), WeightKind(wkind)
    if kind is MeanKind.ARITH:
        _require_defined(h1, h2, kind, cfg)
        n, m = len(h1.finite_points()), len(h2.finite_points())
        if n == m:
            return _closed(Answer.YES, f"|H1| = |H2| = {n}")
        return _closed(Answer.NO, f"|H1| = {n} != |H2| = {m}")
    if kind is MeanKind.AVG:
        _require_defined(h1, h2, kind, cfg)
        d1, d2 = dimension_of(h1), dimension_of(h2)
        if compare_dims(d1, d2) != 0:
            return _closed(Answer.NO, "different Hausdorff dimensions")
        return _measures_equal(h1, h2, d1)
    if kind is MeanKind.ACC:
        _require_defined(h1, h2, kind, cfg)
        (l1, top1), (l2, top2) = top_level(h1), top_level(h2)
        if l1 != l2:
            return _closed(Answer.NO, f"levels differ: {l1} vs {l2}")
        c1, c2 = len(top1.finite_points()), len(top2.finite_points())
        if c1 == c2:
            return _closed(Answer.YES, f"equal level {l1}, equal top count {c1}")
        return _closed(Answer.NO, f"top-level counts differ: {c1} vs {c2}")
    if kind is MeanKind.LIS:
        b1, b2 = bounds(h1), bounds(h2)
        if b1.acc_inf is None or b2.acc_inf is None:
            raise DomainViolation("equal weight under lis needs infinite sets")
        if wkind is WeightKind.IN_BOUND:
            return _closed(Answer.YES, "any two sets have equal weight in bound under lis")
        diam1 = b1.acc_sup - b1.acc_inf
        diam2 = b2.acc_sup - b2.acc_inf
        if diam1 == diam2:
            return _closed(Answer.YES, f"equal accumulation diameter {diam1}")
        return _closed(Answer.NO, f"accumulation diameters differ: {diam1} vs {diam2}")
    # ISO: the count ratio must tend to one
    if not (iso_eligible(h1) and iso_eligible(h2)):
        raise DomainViolation("equal weight under iso needs isolated-point sets")
    d1, r1 = iso_growth(h1)
    d2, r2 = iso_growth(h2)
    if d1 != d2:
        return _closed(Answer.NO, f"count degrees differ: {d1} vs {d2}")
    cmp = iso_coeff_compare(r1, r2, d1)
    if cmp == 0:
        return _closed(Answer.YES, f"equal count degree {d1} and leading coefficient")
    if cmp is not None:
        return _closed(Answer.NO, "leading count coefficients differ")
    return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER,
                   ("count coefficients numerically inseparable",))


def _require_defined(h1, h2, kind, cfg):
    for h in (h1, h2):
        mv = mean_of(h, kind, cfg)
        if not mv.is_defined:
            raise DomainViolation(f"operand outside Dom({kind.value}): {mv.reason}")


def _measures_equal(h1: BlockSet, h2: BlockSet, dim) -> Verdict:
    k1, w1 = measure_weight(h1, dim)
    k2, w2 = measure_weight(h2, dim)
    if k1 == "exact" and k2 == "exact":
        if w1 == w2:
            return _closed(Answer.YES, f"equal measure {w1} at the shared dimension")
        return _closed(Answer.NO, f"measures differ: {w1} vs {w2}")
    if k1 == "terms" and k2 == "terms":
        if w1 == w2:
            return _closed(Answer.YES, "identical weight terms at the shared dimension")
        cmp = compare_weight_terms(w1, w2)
        if cmp == 0:
            return _closed(Answer.YES, "equal weights at the shared dimension")
        if cmp is not None:
            return _closed(Answer.NO, "measures separated numerically")
        return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER,
                       ("measures numerically inseparable",))
    return _closed(Answer.NO, "measures of different character at the shared dimension")


def transitivity_probe(h1: BlockSet, h2: BlockSet, h3: BlockSet, kind: MeanKind,
                       cfg: LadderConfig = DEFAULT_CONFIG, xmax: int = 4) -> DefectCurve:
    """Sample the four-term combination whose collapse makes the relation transitive."""
    kind = MeanKind(kind)
    samples = []
    for x in sorted(_translate_grid(xmax, h1, h2, h3)):
        h2x = translate_set(h2, x)
        h3xx = translate_set(h3, 2 * x)
        u12 = mean_of(union_sets(h1, h2x), kind, cfg)
        u23 = mean_of(union_sets(h2x, h3xx), kind, cfg)
        u13 = mean_of(union_sets(h1, h3xx), kind, cfg)
        m2 = mean_of(h2x, kind, cfg)
        if all(v.is_defined for v in (u12, u23, u13, m2)):
            if all(v.is_exact for v in (u12, u23, u13, m2)):
                val = MeanValue.exact(u12.value + u23.value - u13.value - m2.value)
            else:
                val = MeanValue.approximate(
                    u12.as_float() + u23.as_float() - u13.as_float() - m2.as_float(),
                    2 * cfg.tol,
                )
        else:
            val = MeanValue.undefined("a term left the domain")
        samples.append((x, val))
    trend, slope = classify_trend(samples, cfg.tol)
    return DefectCurve(tuple(samples), trend, slope)
