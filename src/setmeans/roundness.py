"""Roundness of a set with respect to a mean.

A set is round when its mean value cuts it into a lower and an upper part
whose means average back to the whole mean.  Each mean has an equivalent
witness predicate (cardinality split, measure split, top-level counts,
accumulation-bound midpoint, or isolated-count ratio), evaluated here on
the same halves but independently of the defect, so the two routes can be
compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property

from .classify import Answer, Method, Verdict, iso_growth
from .errors import DomainViolation
from .means import (
    DEFAULT_CONFIG,
    LadderConfig,
    MeanKind,
    MeanValue,
    compare_weight_terms,
    dimension_of,
    iso_coeff_compare,
    mean_of,
    measure_weight,
    values_close,
)
from .sets import BlockSet, bounds, cut_set, top_level


@dataclass(frozen=True)
class RoundReport:
    k: MeanValue
    k1: MeanValue
    k2: MeanValue
    defect: MeanValue
    verdict: Verdict
    witness: dict = field(default_factory=dict)


class _Halves:
    """The mean k of a set, its two halves at k, and what is read off them.

    Both roundness routes start here.  Each per-half quantity is computed on
    first use and kept, so one pass serves the defect and the witness.
    """

    def __init__(self, h: BlockSet, kind: MeanKind, cfg: LadderConfig):
        self.h, self.kind, self.cfg = h, kind, cfg
        self.k = mean_of(h, kind, cfg)
        if not self.k.is_defined:
            raise DomainViolation(f"set outside Dom({kind.value}): {self.k.reason}")
        self.kq = self.k.value if self.k.is_exact else Q(self.k.approx)
        self.low = cut_set(h, self.kq, keep_low=True)
        self.high = cut_set(h, self.kq, keep_low=False)
        if self.low.is_empty or self.high.is_empty:
            raise DomainViolation("the mean value cuts off an empty half")

    @cached_property
    def means(self) -> tuple[MeanValue, MeanValue]:
        return mean_of(self.low, self.kind, self.cfg), mean_of(self.high, self.kind, self.cfg)

    @cached_property
    def tops(self):
        """(level, top derived set) of each half."""
        return top_level(self.low), top_level(self.high)

    @cached_property
    def measures(self):
        """measure_weight of each half at the whole set's dimension."""
        dim = dimension_of(self.h)
        return measure_weight(self.low, dim), measure_weight(self.high, dim)

    @cached_property
    def acc_bounds(self):
        return bounds(self.low), bounds(self.high)


def round_defect(h: BlockSet, kind: MeanKind,
                 cfg: LadderConfig = DEFAULT_CONFIG) -> RoundReport:
    """Compute k, the two halves' means, and their averaging defect.

    The halves keep the cut value itself on both sides, matching the
    closed-halfline intersections.  For the ladder mean non-convergent
    halves yield an inconclusive verdict instead of a refutation.
    """
    return _defect(_Halves(h, MeanKind(kind), cfg))


def round_witness(h: BlockSet, kind: MeanKind,
                  cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Evaluate the per-mean roundness characterization directly."""
    return _witness(_Halves(h, MeanKind(kind), cfg))


def round_pass(h: BlockSet, kind: MeanKind,
               cfg: LadderConfig = DEFAULT_CONFIG) -> tuple[RoundReport, Verdict]:
    """``(round_defect(...), round_witness(...))`` from one pass over the halves.

    Raises what round_defect raises first, then what round_witness raises.
    """
    halves = _Halves(h, MeanKind(kind), cfg)
    return _defect(halves), _witness(halves)


def _defect(halves: _Halves) -> RoundReport:
    kind, cfg, k = halves.kind, halves.cfg, halves.k
    k1, k2 = halves.means
    if not (k1.is_defined and k2.is_defined):
        reason = k1.reason if not k1.is_defined else k2.reason
        if kind is MeanKind.ISO:
            verdict = Verdict(Answer.INCONCLUSIVE, Method.SAMPLER,
                              (f"a half did not converge: {reason}",))
            return RoundReport(k, k1, k2, MeanValue.undefined(reason), verdict)
        raise DomainViolation(f"a half lies outside Dom({kind.value}): {reason}")
    if k.is_exact and k1.is_exact and k2.is_exact:
        defect = MeanValue.exact((k1.value + k2.value) / 2 - k.value)
        answer = Answer.YES if defect.value == 0 else Answer.NO
        verdict = Verdict(answer, Method.CLOSED_FORM, (f"defect {defect.value}",))
    else:
        d = (k1.as_float() + k2.as_float()) / 2 - k.as_float()
        defect = MeanValue.approximate(d, 2 * cfg.tol)
        answer = Answer.YES if abs(d) < 2 * cfg.tol else Answer.NO
        verdict = Verdict(answer, Method.CLOSED_FORM, (f"defect {d:.3g}",))
    return RoundReport(k, k1, k2, defect, verdict, _witness_payload(halves))


def _witness_payload(halves: _Halves) -> dict:
    if halves.kind is MeanKind.ARITH:
        return {"split": [len(halves.low.finite_points()), len(halves.high.finite_points())]}
    if halves.kind is MeanKind.AVG:
        (_, w1), (_, w2) = halves.measures
        return {"measures": [str(w1), str(w2)]}
    if halves.kind is MeanKind.ACC:
        (l1, top1), (l2, top2) = halves.tops
        return {
            "levels": [int(l1), int(l2)],
            "counts": [len(top1.finite_points()), len(top2.finite_points())],
        }
    if halves.kind is MeanKind.LIS:
        b1, b2 = halves.acc_bounds
        if b1.acc_sup is None or b2.acc_inf is None:
            return {}
        return {"half_mid": str((b1.acc_sup + b2.acc_inf) / 2)}
    return {}


def _witness(halves: _Halves) -> Verdict:
    kind, cfg, k, kq = halves.kind, halves.cfg, halves.k, halves.kq

    if kind is MeanKind.ARITH:
        m1, m2 = len(halves.low.finite_points()), len(halves.high.finite_points())
        answer = Answer.YES if m1 == m2 else Answer.NO
        return Verdict(answer, Method.CLOSED_FORM, (f"split {m1}|{m2} at k={kq}",))

    if kind is MeanKind.AVG:
        (kind1, w1), (kind2, w2) = halves.measures
        if kind1 == "exact" and kind2 == "exact":
            answer = Answer.YES if w1 == w2 else Answer.NO
            return Verdict(answer, Method.CLOSED_FORM, (f"measures {w1} vs {w2}",))
        if w1 == w2:
            return Verdict(Answer.YES, Method.CLOSED_FORM, ("identical weight terms",))
        cmp = compare_weight_terms(w1, w2)
        if cmp is None:
            return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER,
                           ("half measures numerically inseparable",))
        if cmp == 0:
            return Verdict(Answer.YES, Method.CLOSED_FORM, ("equal half weights",))
        return Verdict(Answer.NO, Method.CLOSED_FORM, ("measures separated numerically",))

    if kind is MeanKind.ACC:
        (l1, top1), (l2, top2) = halves.tops
        if l1 != l2:
            return Verdict(Answer.NO, Method.CLOSED_FORM, (f"half levels differ: {l1} vs {l2}",))
        c1, c2 = len(top1.finite_points()), len(top2.finite_points())
        answer = Answer.YES if c1 == c2 else Answer.NO
        return Verdict(answer, Method.CLOSED_FORM,
                       (f"level {l1} top counts {c1}|{c2}",))

    if kind is MeanKind.LIS:
        b1, b2 = halves.acc_bounds
        if b1.acc_sup is None or b2.acc_inf is None:
            raise DomainViolation("a half is finite, outside Dom(lis)")
        mid = (b1.acc_sup + b2.acc_inf) / 2
        answer = Answer.YES if mid == kq else Answer.NO
        return Verdict(answer, Method.CLOSED_FORM,
                       (f"(limsup H- + liminf H+)/2 = {mid} vs k = {kq}",))

    # ISO: half means back at k, or the top/bottom count ratio tends to one
    ev = []
    k1, k2 = halves.means
    if k1.is_defined and k2.is_defined:
        ev.append(f"half means {k1.as_float():.6g}, {k2.as_float():.6g} "
                  f"vs k={k.as_float():.6g}")
        if values_close(k1, k, cfg.tol) and values_close(k2, k, cfg.tol):
            return Verdict(Answer.YES, Method.CLOSED_FORM, tuple(ev))
    else:
        ev.append("a half mean did not converge")
    d1, r1 = iso_growth(halves.low)
    d2, r2 = iso_growth(halves.high)
    if d1 != d2:
        ev.append(f"side count degrees differ: {d1} vs {d2}")
        return Verdict(Answer.NO, Method.CLOSED_FORM, tuple(ev))
    cmp = iso_coeff_compare(r2, r1, d1)
    if cmp == 0:
        ev.append(f"count ratio |P|/|S| -> 1 (equal degree {d1} and coefficient)")
        return Verdict(Answer.YES, Method.CLOSED_FORM, tuple(ev))
    if cmp is not None:
        ev.append("count ratio limit differs from 1")
        return Verdict(Answer.NO, Method.CLOSED_FORM, tuple(ev))
    ev.append("count coefficients numerically inseparable")
    return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER, tuple(ev))
