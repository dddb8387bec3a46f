"""Equal-weight relations: when two sets behave like equal point masses.

The defining quantity is the defect D(x) = K(H1 u (H2+x)) - (K(H1) + K(H2+x))/2.
Two sets have equal weight in bound when the defect stays bounded over all
translates, in limit when it vanishes as x grows, and in equality when it
is exactly zero once the sets are separated relative to the mean.

Under arith, acc, avg and iso the relations have one closed form: the sets
carry equal weights.  Each set's ``means.Weight`` (``weight_of``) holds an
order (0, level, dimension or count degree) and a magnitude at it (point
count, top-level count, measure, count coefficient), and
``_Pair.weight_verdict`` compares the two Weights, order first.  Roundness
reads the two halves of a set as such a pair.  Dom(kind) is read without
evaluating a mean (``means.undefined_reason``).

A defect curve (``defect_curve``) is the defect's two tails: past each end
of the window of translates where H1 and H2+x meet, D(x) = alpha + beta*x.
Outside lis the window is where the hulls meet, and both tails share alpha
and beta.  The operand of higher weight order gives the union's mean, so
beta = -1/2 (H1's) or 1/2 (H2's); at equal orders the union's mean is
(W1*K1 + W2*(K2+x)) / (W1 + W2), so beta = (W2 - W1) / (2*(W1 + W2)); and
alpha = beta * (K2 - K1).  Under lis (H1 u H2+x)' = H1' u (H2+x)', so D is
constant, +-(d2 - d1)/4 with d the accumulation diameter, once H2+x's
accumulation bounds lie beyond H1's.  The curve's trend is the equal-weight
decision from the same Weights: growth unless they are equal, and under lis
a bounded defect that vanishes for equal diameters.  Only alpha reads the
means: where one cannot be read as a float, alpha is undefined and the
trend and beta stand.  A curve builds no set.

``weight_defect`` is the defect at one translate, inside the window too:
the means of the built union and translate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .blocks import cached_property
from .classify import Answer, Verdict, _closed
from .errors import DomainViolation, ValidationError
from .means import (
    DEFAULT_CONFIG,
    LadderConfig,
    MeanKind,
    MeanValue,
    Weight,
    _joint_sums,
    _mean_of_sums,
    combine,
    compare_orders,
    mean_of,
    undefined_reason,
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
class Tail:
    """D(x) = alpha + beta*x at every translate strictly beyond threshold:
    above it on a curve's right tail, below it on its left.  alpha and beta
    are exact, enclosed within their tol, or undefined with the reason."""

    threshold: Q
    alpha: MeanValue
    beta: MeanValue


@dataclass(frozen=True)
class DefectCurve:
    """The defect's trend as |x| grows, and its tails right and left of the
    window where H1 and H2+x meet."""

    trend: Trend
    right: Tail
    left: Tail


def weight_defect(h1: BlockSet, h2: BlockSet, kind: MeanKind, x: Q,
                  cfg: LadderConfig = DEFAULT_CONFIG) -> MeanValue:
    """K(H1 u (H2+x)) - (K(H1) + K(H2+x))/2, exact for the exact means,
    from the built translate and union.  ValidationError when x is not
    rational."""
    kind, shifted = MeanKind(kind), translate_set(h2, x)
    return combine(_defect_of, mean_of(union_sets(h1, shifted), kind, cfg),
                   mean_of(h1, kind, cfg), mean_of(shifted, kind, cfg), tol=cfg.tol)


def _defect_of(u, k1, k2):
    return u - (k1 + k2) / 2


def defect_curve(h1: BlockSet, h2: BlockSet, kind: MeanKind,
                 cfg: LadderConfig = DEFAULT_CONFIG) -> DefectCurve:
    """The defect's two tails and its trend, read once from the operands'
    bounds and Weights, and alpha from their means; no union or translate
    is built.  Outside the domain, or with Weights that do not separate,
    the trend is INCONCLUSIVE and alpha and beta are undefined."""
    return _Pair(h1, h2, MeanKind(kind), cfg).curve()


def weigh_pair(h1: BlockSet, h2: BlockSet, kind: MeanKind, wkind: WeightKind,
               cfg: LadderConfig = DEFAULT_CONFIG) -> tuple[Verdict, DefectCurve]:
    """equal_weight and defect_curve of one pair, from one reading of the
    operands: the Weights are compared once, and their joint class sums
    built at most once."""
    pair = _Pair(h1, h2, MeanKind(kind), cfg)
    return pair.verdict(WeightKind(wkind)), pair.curve()


class _Pair:
    """Two operands under one mean, and what their defect and equal weight
    are read from: the bounds, the means, the Weights and their orders, the
    Weights' joint class sums, their comparison and beta, each read when
    first needed and then kept."""

    def __init__(self, h1: BlockSet, h2: BlockSet, kind: MeanKind, cfg: LadderConfig):
        self.h1, self.h2, self.kind, self.cfg = h1, h2, kind, cfg
        self.lis = kind is MeanKind.LIS

    @cached_property
    def bounds(self):
        return bounds(self.h1), bounds(self.h2)

    @cached_property
    def means(self) -> tuple[MeanValue, MeanValue]:
        return mean_of(self.h1, self.kind, self.cfg), mean_of(self.h2, self.kind, self.cfg)

    @cached_property
    def weights(self) -> tuple[Weight, Weight]:
        return weight_of(self.h1, self.kind), weight_of(self.h2, self.kind)

    @cached_property
    def higher(self) -> int:
        return compare_orders(*(w.order for w in self.weights))

    @cached_property
    def sums(self):
        """The Weights' joint class sums (means._joint_sums), or None for two
        rational totals, which compare and give beta without classes."""
        w1, w2 = self.weights
        if w1.total is None or w2.total is None:
            return _joint_sums(w1.terms, w2.terms, w1.ratio)
        return None

    @cached_property
    def differ(self) -> Optional[int]:
        """The sign of W1 - W2, order first; None when undecided."""
        w1, w2 = self.weights
        return self.higher or w1.compare_magnitude(w2, self.sums)

    @cached_property
    def beta(self) -> MeanValue:
        """beta: -1/2 or 1/2 when H1's or H2's order is higher, else
        (W2 - W1) / (2*(W1 + W2)), exact for rational totals or one class,
        else read from the joint class sums within tol as an approximate mean
        is.  An enclosure narrower than tol = 1e-9 keeps a beta near 1e-8 to
        about 12 significant digits: W2 - W1 cancels about 30 of its bits."""
        (w1, w2), higher = self.weights, self.higher
        if higher:
            return MeanValue.exact(Q(-higher, 2))
        if self.sums is None:
            return MeanValue.exact(Q(w2.total - w1.total) / (2 * (w1.total + w2.total)))
        return _mean_of_sums([(first, 2 * both, -diff) for first, both, diff in self.sums],
                             w1.enclose, self.cfg.tol)

    def verdict(self, wkind: WeightKind) -> Verdict:
        """equal_weight's verdict."""
        if self.lis:
            b1, b2 = self.bounds
            if b1.acc_inf is None or b2.acc_inf is None:
                raise DomainViolation("equal weight under lis needs infinite sets")
            if wkind is WeightKind.IN_BOUND:
                return _closed(Answer.YES, "any two sets have equal weight in bound under lis")
            diam1, diam2 = b1.acc_sup - b1.acc_inf, b2.acc_sup - b2.acc_inf
            if diam1 == diam2:
                return _closed(Answer.YES, f"equal accumulation diameter {diam1}")
            return _closed(Answer.NO, f"accumulation diameters differ: {diam1} vs {diam2}")
        if self.kind is not MeanKind.ISO and self.outside is not None:
            raise DomainViolation(f"operand outside Dom({self.kind.value}): {self.outside}")
        return self.weight_verdict()

    def weight_verdict(self) -> Verdict:
        """Are the Weights equal (not under lis)?  INCONCLUSIVE when two sums of
        transcendental terms are not separated once 4096 bits are spent."""
        (w1, w2), kind, higher = self.weights, self.kind, self.higher
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
        if self.differ is None:
            return Verdict(Answer.INCONCLUSIVE, (f"{what}: numerically inseparable",))
        return _closed(Answer.NO if self.differ else Answer.YES,
                       f"{what}: {'differ' if self.differ else 'equal'}")

    @cached_property
    def outside(self) -> Optional[str]:
        """Why an operand is outside Dom(kind), H1 first, or None: read
        without evaluating a mean (means.undefined_reason)."""
        return undefined_reason(self.h1, self.kind) or undefined_reason(self.h2, self.kind)

    def alpha(self) -> MeanValue:
        """alpha = beta * (K2 - K1): exactly 0 when beta is, without the means,
        or when K1 = K2 exactly; exact when beta and K2 - K1 are; otherwise
        the float product, with the error its operands' tols bound
        (|beta|*t + tb*(|K2 - K1| + t), t = t1 + t2).  Undefined, with the
        reason, when a mean cannot be read as a float."""
        beta = self.beta
        if beta.value == 0:
            return MeanValue.exact(0)
        try:
            m1, m2 = self.means
        except ValidationError as exc:
            return MeanValue.undefined(str(exc))
        exact_k = m1.is_exact and m2.is_exact
        if exact_k and m1.value == m2.value:
            return MeanValue.exact(0)
        if beta.is_exact and exact_k:
            return MeanValue.exact(beta.value * (m2.value - m1.value))
        b, k = beta.as_float(), m2.as_float() - m1.as_float()
        t, tb = (m1.tol or 0.0) + (m2.tol or 0.0), beta.tol or 0.0
        return MeanValue.approximate(b * k, abs(b) * t + tb * (abs(k) + t))

    def curve(self) -> DefectCurve:
        b1, b2 = self.bounds
        defined = self.outside is None
        if self.lis and defined:
            # H2+x's accumulation bounds lie right of H1's past one threshold, left below the other
            a, s = b1.acc_inf - b2.acc_inf, b1.acc_sup - b2.acc_sup
            d = ((b2.acc_sup - b2.acc_inf) - (b1.acc_sup - b1.acc_inf)) / 4
            zero = MeanValue.exact(0)
            return DefectCurve(Trend.BOUNDED if d else Trend.TO_ZERO,
                               Tail(max(a, s), MeanValue.exact(d), zero),
                               Tail(min(a, s), MeanValue.exact(-d), zero))
        # H2+x lies right of H1's hull past one threshold and left below the other
        right, left = b1.sup - b2.inf, b1.inf - b2.sup
        if defined and self.differ is not None:
            alpha, beta = self.alpha(), self.beta
            trend = Trend.LINEAR_GROWTH if self.differ else Trend.TO_ZERO
            return DefectCurve(trend, Tail(right, alpha, beta), Tail(left, alpha, beta))
        why = MeanValue.undefined(self.outside or "the weights are numerically inseparable")
        return DefectCurve(Trend.INCONCLUSIVE, Tail(right, why, why), Tail(left, why, why))


# ---------------------------------------------------------------------------
# closed-form relation testers


def equal_weight(h1: BlockSet, h2: BlockSet, kind: MeanKind, wkind: WeightKind,
                 cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Per-mean characterizations of the three equal-weight relations.

    Under lis they are read off the accumulation bounds; under every other
    mean the three coincide with equal weights: one comparison of the two
    sets' Weights (_Pair.weight_verdict).
    """
    return _Pair(h1, h2, MeanKind(kind), cfg).verdict(WeightKind(wkind))

