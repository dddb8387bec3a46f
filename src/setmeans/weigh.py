"""Equal-weight relations: when two sets behave like equal point masses.

The defining quantity is the defect K(H1 u (H2+x)) - (K(H1) + K(H2+x))/2.
Two sets have equal weight in bound when the defect stays bounded over all
translates, in limit when it vanishes as x grows, and in equality when it
is exactly zero once the sets are separated relative to the mean.

Under arith, acc, avg and iso the relations have one closed form: the sets
carry equal weights.  Each set's ``means.Weight`` (``weight_of``) holds an
order (0, level, dimension or count degree) and a magnitude at it (point
count, top-level count, measure, count coefficient), and
``compare_weights`` compares the two Weights, order first.  Roundness
compares the two halves of a set the same way.

The defect is read from the operands' own means, weights and bounds, and
equals the evaluation of H1 u (H2+x), bit for bit when it is approximate.
With both operand means exact it is one affine form on each side of H1's
hull, built once per curve, and under lis one closed form at every
translate.  Otherwise, at a translate that separates the hulls strictly,
the union's class sums are affine in x, so a curve builds them once for
each side of H1 and each sample encloses only its numerators.  A sample
builds the union and the translate and measures them only when an operand's
mean is undefined or, outside lis, the hulls are not strictly separated.

A curve's trend is the equal-weight decision from the same Weights, not a
reading of its samples: the separated defect beta * (x + K2 - K1) grows
unless the Weights are equal, and under lis it is (d2 - d1)/4, vanishing
for equal accumulation diameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .blocks import as_q
from .classify import Answer, Method, Verdict, _closed, _translate_grid
from .errors import DomainViolation
from .means import (
    DEFAULT_CONFIG,
    LadderConfig,
    MeanKind,
    MeanValue,
    Weight,
    _classes,
    _mean_of_sums,
    combine,
    compare_orders,
    mean_of,
    weight_of,
)
from .rational import Q
from .sets import BlockSet, bounds, translate_set, union_sets


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

    Read from the operands' means, weights and bounds where _read_defect
    can (it equals the evaluation of the union and the translate);
    otherwise those two sets are built and measured.  ValidationError when
    x is not rational.
    """
    kind, x = MeanKind(kind), as_q(x)
    return _defect(h1, h2, kind, x, cfg, _read_defect(h1, h2, kind, cfg))


def _defect(h1, h2, kind, x, cfg, read) -> MeanValue:
    d = read(x)
    if d is None:
        shifted = translate_set(h2, x)
        d = combine(_defect_of, mean_of(union_sets(h1, shifted), kind, cfg),
                    mean_of(h1, kind, cfg), mean_of(shifted, kind, cfg), tol=cfg.tol)
    return d


def _defect_of(u, k1, k2):
    return u - (k1 + k2) / 2


def _read_defect(h1: BlockSet, h2: BlockSet, kind: MeanKind, cfg: LadderConfig):
    """x -> the defect at x read from the operands, without building a set, or None.

    None when an operand's mean is undefined or, outside lis, the hulls of
    H1 and H2+x are not strictly disjoint (touching ones can share a point).
    With exact K1 = K(H1) and K2 = K(H2) the defect is a closed form, and
    each value the reduced rational of the union's evaluation:
    - under lis at every x, as (H1 u H2+x)' = H1' u (H2+x)': with the
      accumulation bounds a_i, s_i, (min(a1, a2+x) + max(s1, s2+x) - x - K1 - K2)/2;
    - else, at a separated x, where the union's derived sets are the
      operands' side by side, beta * (x + K2 - K1): the operand of higher
      weight order gives the union's mean (beta = -1/2 for H1, 1/2 for H2),
      and at equal order rational totals give (W1*K1 + W2*(K2+x)) /
      (W1 + W2), so beta = (W2 - W1) / (2*(W1 + W2)).
    Otherwise (an approximate operand, or equal orders without rational
    totals) the union's terms are the operands' terms side by side, left
    operand first, as the union's blocks are.  A term's class and its
    rational multiple q of the class's first term depend on the terms alone,
    so each class's sums sum(q) and sum(q * position) are affine in x:
    K(H2+x) and, for each side of H1, K(H1 u (H2+x)) are read from class
    sums built once (_affine_mean).  K(H1), K(H2), the Weights and their
    order are read once, when a translate or trend() first needs them.
    trend() gives the curve's (Trend, slope) from them; beta is exact for
    rational totals, else read as an approximate mean is (joint class sums).
    """
    b1, b2 = bounds(h1), bounds(h2)
    # H2+x lies right of H1's hull past one threshold and left below the other
    right_of, left_of = b1.sup - b2.inf, b1.inf - b2.sup
    lis = kind is MeanKind.LIS
    # the operands' means, Weights and order, the closed form, and the class
    # sums of K(H2+x) and of the union on each side, each read when first needed
    kept: dict = {}

    def keep(key, f):
        if key not in kept:
            kept[key] = f()
        return kept[key]

    def weights():
        return keep("weights", lambda: (weight_of(h1, kind), weight_of(h2, kind)))

    def higher():
        return keep("order", lambda: compare_orders(*(w.order for w in weights())))

    def tail(*parts):
        # keyed (True,), (False, True) or (True, False)
        return keep(tuple(moves for _, moves in parts), lambda: _affine_mean(parts))

    def means():
        return keep("means", lambda: (mean_of(h1, kind, cfg), mean_of(h2, kind, cfg)))

    def beta():  # None for equal orders without rational totals
        (w1, w2), sign = weights(), higher()
        if sign:
            return Q(-sign, 2)
        if w1.total is not None and w2.total is not None:
            return Q(w2.total - w1.total) / (2 * (w1.total + w2.total))
        return None

    def closed():
        m1, m2 = means()
        if not (m1.is_exact and m2.is_exact):
            return None
        if lis:
            a1, s1, a2, s2 = b1.acc_inf, b1.acc_sup, b2.acc_inf, b2.acc_sup
            k = m1.value + m2.value
            return lambda x: (min(a1, a2 + x) + max(s1, s2 + x) - x - k) / 2
        b, c = beta(), m2.value - m1.value
        return None if b is None else lambda x: b * (x + c)

    def trend():
        m1, m2 = means()
        if not (m1.is_defined and m2.is_defined):
            return Trend.INCONCLUSIVE, None
        if lis:
            same = b1.acc_sup - b1.acc_inf == b2.acc_sup - b2.acc_inf
            return Trend.TO_ZERO if same else Trend.BOUNDED, 0.0
        b = beta()
        if b is None:
            w1, w2 = weights()
            differ = w1.compare_magnitude(w2)
            if not differ:
                return (Trend.INCONCLUSIVE, None) if differ is None else (Trend.TO_ZERO, 0.0)
            items = [(t, -1) for t in w1.terms] + [(t, 1) for t in w2.terms]
            sums = [(first, 2 * sum(q for q, _ in members), sum(q * side for q, side in members))
                    for first, members in _classes(items, w1.ratio).items()]
            return Trend.LINEAR_GROWTH, _mean_of_sums(sums, w1.enclose, cfg.tol, {}).as_float()
        return Trend.LINEAR_GROWTH if b else Trend.TO_ZERO, float(b)

    def at(x: Q):
        right = x > right_of
        if not (lis or right or x < left_of):
            return None
        form = keep("closed", closed)
        if form:
            return MeanValue.exact(form(x))
        m1, m2 = kept["means"]
        if not (m1.is_defined and m2.is_defined):
            return None
        w1, w2 = weights()
        k2 = m2.shifted(x) if m2.is_exact else tail((w2, True))(x, cfg.tol)
        if higher():
            k = m1 if higher() > 0 else k2
        else:
            sides = ((w1, False), (w2, True))
            k = tail(*(sides if right else sides[::-1]))(x, cfg.tol)
        return combine(_defect_of, k, m1, k2, tol=cfg.tol)

    at.trend = trend
    return at


def _affine_mean(parts):
    """x, tol -> the weighted mean of (Weight, moves) parts' terms side by
    side in block order, the positions of a part that moves shifted by x.

    Its class sums (first, den, a, b) are built once: a class's numerator
    is a + x*b, and means._mean_of_sums keeps the class enclosures and the
    denominator's by precision (dens), since x moves only numerators.
    """
    w0 = parts[0][0]
    items = [(t, (p, moves)) for w, moves in parts for t, p in zip(w.terms, w.positions)]
    sums = [(first, sum(q for q, _ in members),
             sum(q * p for q, (p, _) in members),
             sum(q for q, (_, moves) in members if moves))
            for first, members in _classes(items, w0.ratio).items()]
    dens: dict = {}

    def at(x: Q, tol: float) -> MeanValue:
        return _mean_of_sums([(first, den, a + x * b) for first, den, a, b in sums],
                             w0.enclose, tol, dens)

    return at


def defect_curve(h1: BlockSet, h2: BlockSet, kind: MeanKind,
                 cfg: LadderConfig = DEFAULT_CONFIG, xmax: int = 4) -> DefectCurve:
    """weight_defect over the translate grid, with the equal-weight trend;
    the samples and the trend share one _read_defect, so the operands are
    read once per curve and its class sums built once per curve side.
    ValidationError when xmax lies outside 0..XMAX or the grid's largest
    translate does not fit a float."""
    kind = MeanKind(kind)
    xs = sorted(_translate_grid(xmax, h1, h2))
    read = _read_defect(h1, h2, kind, cfg)
    samples = tuple((x, _defect(h1, h2, kind, x, cfg, read)) for x in xs)
    return DefectCurve(samples, *read.trend())


# ---------------------------------------------------------------------------
# closed-form relation testers


def equal_weight(h1: BlockSet, h2: BlockSet, kind: MeanKind, wkind: WeightKind,
                 cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Per-mean characterizations of the three equal-weight relations.

    Under lis they are read off the accumulation bounds; under every other
    mean the three coincide with equal weights: one comparison of the two
    sets' Weights (compare_weights).
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


def compare_weights(w1: Weight, w2: Weight, kind: MeanKind) -> Verdict:
    """YES when the Weights of two sets in Dom(kind) are equal, NO when
    their orders or magnitudes differ, INCONCLUSIVE (by the sampler) when
    two sums of transcendental terms are not separated within the interval
    budget.  kind (not lis) only words the evidence."""
    kind = MeanKind(kind)
    higher = compare_orders(w1.order, w2.order)
    differ = higher or w1.compare_magnitude(w2)
    if kind is MeanKind.ARITH:
        what = f"point counts {w1.total} vs {w2.total}"
    elif kind is MeanKind.ACC:
        what = f"levels {w1.order} vs {w2.order}, top-level counts {w1.total} vs {w2.total}"
    elif kind is MeanKind.AVG:
        if higher:
            what = "Hausdorff dimensions"
        elif w1.total is None:
            what = "Cantor weights at the shared dimension"
        else:
            what = f"measures {w1.total} vs {w2.total} at the shared dimension"
    elif higher:
        what = f"count degrees {w1.order} vs {w2.order}"
    else:
        what = f"leading count coefficients at degree {w1.order}"
    if differ is None:
        return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER, (f"{what}: numerically inseparable",))
    return _closed(Answer.NO if differ else Answer.YES,
                   f"{what}: {'differ' if differ else 'equal'}")

