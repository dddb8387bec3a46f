"""Small-set and big-set classification relative to a mean.

A set V is small to H when unioning or removing any translate of V leaves
the mean of H unchanged; V is big to H when H is small to V.  Under every
mean V is small to H exactly when V's order (``means.order_of``: the
dimension, the level, or under lis the level capped at 1) is below H's, so
every verdict is closed-form and definitive.  A set is globally small when
it is small to every member of the domain, that is, to one of least order.
Dom(kind) is read by ``means.undefined_reason``, which evaluates no mean,
so no verdict here depends on tol: each ``cfg`` is accepted but unread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .blocks import INT_DIGITS, Finite, GeomSeq
from .errors import DomainViolation, EmptyResult, ValidationError
from .means import (
    DEFAULT_CONFIG,
    LadderConfig,
    MeanKind,
    compare_orders,
    order_of,
    undefined_reason,
)
from .rational import Q
from .sets import (
    BlockSet,
    IsolationProfile,
    bounds,
    contains,
    derived_set,
    intersect,
    isolated_count,
    level,
    normalize_blocks,
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
# the classifiers


def is_small_for(v: BlockSet, h: BlockSet, kind: MeanKind,
                 cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Is V small to H: does any translate of V leave K(H) unchanged?
    cfg is accepted, but Dom(kind) does not depend on tol."""
    kind = MeanKind(kind)
    if undefined_reason(h, kind) is not None:
        raise DomainViolation(f"reference set is outside Dom({kind.value})")
    return _small(v, h, kind)


def _small(v: BlockSet, h: BlockSet, kind: MeanKind) -> Verdict:
    """is_small_for for an H already known to be in the domain."""
    if v.is_empty:
        return _closed(Answer.YES, "empty set is small to everything")
    ov, oh = order_of(v, kind), order_of(h, kind)
    if compare_orders(ov, oh) < 0:
        return _closed(Answer.YES, f"order(V)={ov} < order(H)={oh}")
    return _closed(Answer.NO, f"order(V)={ov} >= order(H)={oh}")


def is_big_for(v: BlockSet, h: BlockSet, kind: MeanKind,
               cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Is V big to H; by duality, exactly when H is small to V.

    The big family only contains domain members, so an out-of-domain
    candidate is a definitive no rather than an error.  cfg is accepted,
    but Dom(kind) does not depend on tol.
    """
    kind = MeanKind(kind)
    if undefined_reason(h, kind) is not None:
        raise DomainViolation(f"reference set is outside Dom({kind.value})")
    return _big(v, h, kind, undefined_reason(v, kind) is None)


def _big(v: BlockSet, h: BlockSet, kind: MeanKind, v_in_domain: bool) -> Verdict:
    """is_big_for for an H already known to be in the domain."""
    if not v_in_domain:
        return _closed(Answer.NO, f"a set outside Dom({kind.value}) is never big")
    inner = _small(h, v, kind)
    return _closed(inner.answer, "via duality: H small to V <=> V big to H", *inner.evidence)


def comparable(h: BlockSet, v: BlockSet, kind: MeanKind,
               cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Neither small nor big: the two sets weigh against each other.

    Comparability is only defined between two domain members.  cfg is
    accepted, but Dom(kind) does not depend on tol.
    """
    verdict = classify_bundle(h, v, kind, cfg)["comparable"]
    if isinstance(verdict, DomainViolation):
        raise verdict
    return verdict


def classify_bundle(h: BlockSet, v: BlockSet, kind: MeanKind,
                    cfg: LadderConfig = DEFAULT_CONFIG) -> dict:
    """The "small", "big" and "comparable" verdicts of V against H.

    Each set's domain is read once and comparability is read off the
    other two verdicts.  A verdict that is_small_for, is_big_for or
    comparable would refuse is given as the DomainViolation they raise.
    cfg is accepted, but Dom(kind) does not depend on tol.
    """
    kind = MeanKind(kind)
    if undefined_reason(h, kind) is not None:
        return dict.fromkeys(("small", "big", "comparable"),
                             DomainViolation(f"reference set is outside Dom({kind.value})"))
    v_in_domain = undefined_reason(v, kind) is None
    small = _small(v, h, kind)
    big = _big(v, h, kind, v_in_domain)
    if not v_in_domain:
        neither = DomainViolation(f"candidate set is outside Dom({kind.value})")
    elif small.answer is Answer.NO and big.answer is Answer.NO:
        neither = _closed(Answer.YES, *(small.evidence + big.evidence))
    else:
        neither = _closed(Answer.NO, *(small.evidence + big.evidence))
    return {"small": small, "big": big, "comparable": neither}


def k_disjoint(h1: BlockSet, h2: BlockSet, kind: MeanKind, weak: bool = False,
               cfg: LadderConfig = DEFAULT_CONFIG) -> Verdict:
    """Is the intersection small to both sets (the weak form), or globally
    small: small to every member of Dom(kind), that is, to one of least order?

    Those are a point, or under lis, where a finite set has no mean, a
    sequence; so only the empty set is globally small, or under lis the
    finite sets.  cfg is accepted, but Dom(kind) does not depend on tol.
    """
    kind = MeanKind(kind)
    inter = intersect(h1, h2)
    if inter.is_empty:
        return _closed(Answer.YES, "intersection is empty")
    if weak:
        a = is_small_for(inter, h1, kind, cfg)
        b = is_small_for(inter, h2, kind, cfg)
        both = a.answer is Answer.YES and b.answer is Answer.YES
        return _closed(Answer.YES if both else Answer.NO, *(a.evidence + b.evidence))
    least = BlockSet((GeomSeq(Q(0), Q(1), Q(1, 2)) if kind is MeanKind.LIS
                      else Finite.of_sorted((Q(0),)),))
    inner = _small(inter, least, kind)
    return _closed(inner.answer, "globally: V is the intersection, "
                   f"H a least member of Dom({kind.value})", *inner.evidence)


# ---------------------------------------------------------------------------
# constructive witnesses for the isolated-point mean

#: the report-size budget: the most digits the points of a witness may take
WITNESS_DIGITS = 2_000_000


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
    """Witness plus the stage cut-offs at which its count ratio is read.

    A stage whose numbers would pass INT_DIGITS digits, or its points the
    WITNESS_DIGITS budget, raises ValidationError that names the bound and
    the largest depth within it; a big witness checks every stage first.
    """
    if which not in ("small", "big"):
        raise ValidationError("which must be 'small' or 'big'")
    if not 2 <= depth <= WITNESS_DIGITS // 2:  # a stage's points take 2 digits or more
        raise ValidationError(f"depth must be at least 2 and at most {WITNESS_DIGITS // 2}")
    if h2.is_empty:
        raise EmptyResult("cannot build a witness against the empty set")
    if level(h2) == math.inf:  # interval or Cantor parts: isolated points are not dense
        raise DomainViolation("reference set is outside the isolated-point domain")
    acc = derived_set(h2)
    if acc.is_empty:
        raise DomainViolation("reference set has no accumulation points")
    a = bounds(h2).acc_inf
    pts: set[Q] = set()
    stages: list[Q] = []
    spent = 0  # digits of the points, by the bound of check

    def check(stage: int, lo: Q, hi: Q, count: int, placed: int):
        # a point a - t of the band [lo, hi) of count points has t < 1 with a
        # denominator dividing 131*(count+1)*den(lo)*den(hi): a digit bound
        nonlocal spent
        den = a.denominator * 131 * (count + 1) * lo.denominator * hi.denominator
        each = math.ceil(((abs(a.numerator) // a.denominator + 2) * den).bit_length() * math.log10(2))
        spent += 2 * placed * each
        if each > INT_DIGITS or spent > WITNESS_DIGITS:
            bound = (f"Python's int-to-text limit of {INT_DIGITS} digits" if each > INT_DIGITS
                     else f"the report budget of {WITNESS_DIGITS} digits")
            raise ValidationError(f"a {which} witness of depth {depth} is past {bound} at stage "
                                  f"{stage}; the largest depth within it is {stage - 1}")

    def place(dist_lo: Q, dist_hi: Q, count: int):
        # below the least accumulation point the distance to the whole
        # accumulation set is exactly the offset, so the band is exact
        placed = []
        step = (dist_hi - dist_lo) / (count + 1)
        for j in range(1, count + 1):
            t = dist_lo + j * step
            # t rises by step/131 and stops at dist_hi: at most 131*(count+1) tries
            while contains(h2, a - t) or (a - t) in pts:
                t += step / 131
                if t >= dist_hi:
                    raise DomainViolation("could not place a witness point in the band")
            pts.add(a - t)
            placed.append(t)
        return placed

    if which == "big":
        # m_(1/n) does not fall as n grows: bisect for the first nonempty stage
        lo, hi = 2, depth + 2
        while lo < hi:
            mid = (lo + hi) // 2
            if isolated_count(h2, Q(1, mid)):
                hi = mid
            else:
                lo = mid + 1
        bands = []
        for n in range(lo, depth + 2):
            m = isolated_count(h2, Q(1, n))
            check(n - 1, Q(1, n), Q(1, n - 1), n * m, n * m)
            bands.append((n, m))
        for n, m in bands:
            place(Q(1, n), Q(1, n - 1), n * m)
            stages.append(Q(1, n))
    else:
        prev_ratio = None
        k = 1
        for i in range(1, depth + 1):
            k = max(k + 1, 2)
            while True:
                check(i, Q(1, k + 1), Q(1, k), 1, 0)  # k doubles: this ends the loop
                m = isolated_count(h2, Q(1, k))
                if m > 0 and Q(i, m) < Q(1, i + 1) and (
                    prev_ratio is None or Q(i, m) < prev_ratio
                ):
                    break
                k *= 2
            check(i, Q(1, k + 1), Q(1, k), 1, 1)
            t = place(Q(1, k + 1), Q(1, k), 1)[0]
            stages.append(t)
            # the realized ratio at the placed distance bounds the next stage
            prev_ratio = Q(i, isolated_count(h2, t))
    if not pts:
        raise DomainViolation("no stage produced any points at this depth")
    return normalize_blocks([Finite(tuple(pts))]), tuple(stages)


def witness_stage_ratios(witness: BlockSet, h2: BlockSet, stages):
    """Recount n_eps/m_eps at the stage cut-offs, straight from definitions.

    Each witness point's distance to H2' is measured once and counted at
    every stage.
    """
    far = IsolationProfile(derived_set(h2), witness.finite_points())
    out = []
    for eps in stages:
        n = far.count(eps)
        m = isolated_count(h2, eps)
        if m:
            out.append((eps, Q(n, m)))
    return out
