"""Roundness of a set with respect to a mean.

A set is round when its mean value k cuts it into a lower and an upper part
whose means K- and K+ average back to k.  Both routes read one decision,
the sign of the exact defect, from the halves (H-, H+) read as weigh reads
a pair (``weigh._Pair``): YES when K- and K+ are both exactly k, else the
equal-weight verdict of the halves' Weights; under lis, whether the
midpoint of the halves' inner accumulation bounds is k.  The float defect
is shown but decides nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .blocks import cached_property
from .classify import Answer, Verdict, _closed
from .errors import DomainViolation
from .means import DEFAULT_CONFIG, LadderConfig, MeanKind, MeanValue, combine, mean_of
from .rational import Q
from .sets import BlockSet, cut_set
from .weigh import _Pair


@dataclass(frozen=True)
class RoundReport:
    k: MeanValue
    k1: MeanValue
    k2: MeanValue
    defect: MeanValue
    verdict: Verdict
    witness: dict = field(default_factory=dict)


class _Halves(_Pair):
    """The mean k of a set and its two halves H- and H+ at k, read as weigh
    reads a pair (weigh._Pair): their bounds, means, Weights and the Weights'
    comparison, each on first use and then kept, so one pass serves both
    roundness routes.
    """

    def __init__(self, h: BlockSet, kind: MeanKind, cfg: LadderConfig):
        self.k = mean_of(h, kind, cfg)
        if not self.k.is_defined:
            raise DomainViolation(f"set outside Dom({kind.value}): {self.k.reason}")
        self.kq = self.k.value if self.k.is_exact else Q(self.k.approx)
        low, high = cut_set(h, self.kq, keep_low=True), cut_set(h, self.kq, keep_low=False)
        if low.is_empty or high.is_empty:
            raise DomainViolation("the mean value cuts off an empty half")
        super().__init__(low, high, kind, cfg)

    @cached_property
    def half_mid(self):
        """(limsup of the low half + liminf of the high half)/2; None if a half is finite."""
        b1, b2 = self.bounds
        return None if b1.acc_sup is None or b2.acc_inf is None else (b1.acc_sup + b2.acc_inf) / 2

    @cached_property
    def decision(self) -> Verdict:
        """Is the set round: is its exact defect (K- + K+)/2 - k zero?  It is
        (K+ - K-)(W- - W+) / (2(W- + W+)) at equal weight order, else
        +-(K+ - K-)/2, so zero when K- = K+ (both then k) or W- = W+."""
        if self.lis:
            if self.half_mid is None:
                raise DomainViolation("a half is finite, outside Dom(lis)")
            return _closed(Answer.YES if self.half_mid == self.kq else Answer.NO,
                           f"(limsup H- + liminf H+)/2 = {self.half_mid} vs k = {self.kq}")
        k1, k2 = self.means
        if k1.is_exact and k2.is_exact and k1.value == k2.value:
            return _closed(Answer.YES, f"half means {k1}, {k2} vs k={self.k}")
        return self.weight_verdict()


def round_defect(h: BlockSet, kind: MeanKind,
                 cfg: LadderConfig = DEFAULT_CONFIG) -> RoundReport:
    """Compute k, the two halves' means, and their averaging defect.

    The halves keep the cut value itself on both sides, matching the
    closed-halfline intersections.
    """
    return _defect(_Halves(h, MeanKind(kind), cfg))


def round_witness(h: BlockSet, kind: MeanKind,
                  cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """The roundness decision alone, without the defect."""
    return _Halves(h, MeanKind(kind), cfg).decision


def round_pass(h: BlockSet, kind: MeanKind,
               cfg: LadderConfig = DEFAULT_CONFIG) -> tuple[RoundReport, Verdict]:
    """``(round_defect(...), round_witness(...))`` from one pass over the halves.

    Raises what round_defect raises first, then what round_witness raises.
    """
    halves = _Halves(h, MeanKind(kind), cfg)
    return _defect(halves), halves.decision


def _defect(halves: _Halves) -> RoundReport:
    kind, cfg, k = halves.kind, halves.cfg, halves.k
    k1, k2 = halves.means
    defect = combine(lambda k, k1, k2: (k1 + k2) / 2 - k, k, k1, k2, tol=cfg.tol)
    if not defect.is_defined:
        raise DomainViolation(f"a half lies outside Dom({kind.value}): {defect.reason}")
    verdict = replace(halves.decision, evidence=(f"defect {defect}",))
    return RoundReport(k, k1, k2, defect, verdict, _witness_payload(halves))


def _witness_payload(halves: _Halves) -> dict:
    if halves.kind is MeanKind.LIS:
        return {} if halves.half_mid is None else {"half_mid": str(halves.half_mid)}
    if halves.kind is MeanKind.ISO:
        return {}
    totals = [w.total for w in halves.weights]
    if halves.kind is MeanKind.ARITH:
        return {"split": totals}
    if halves.kind is MeanKind.AVG:
        return {"measures": [str(w) for w in halves.weights]}
    return {"levels": [w.order for w in halves.weights], "counts": totals}
