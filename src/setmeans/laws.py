"""Property harness for the mean axioms over generated corpora.

Each law is instantiated with corpus elements and deterministic shifts;
inputs outside a law's hypotheses count as skipped, never as violations.
A trial reads its hypotheses first, the corpus means before disjointness,
and stops at the first that fails: a skipped trial builds no translate or
union and evaluates no mean of its conclusion, so an error that only the
conclusion would raise is not raised for it.  The harness never claims a
law holds, only that no violation turned up in the trials it ran, and
every recorded violation replays from its rendered inputs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from enum import Enum

from .blocks import Cantor, Finite, GeomSeq, Interval, Tower
from .dsl import render
from .errors import EmptyResult, IntersectionNotRepresentable, ValidationError
from .means import (
    DEFAULT_CONFIG,
    LadderConfig,
    MeanKind,
    MeanValue,
    mean_of,
    order,
)
from .rational import Q
from .sets import (
    BlockSet,
    CutAbove,
    CutBelow,
    Leaf,
    SetExpr,
    Translate,
    Union,
    bounds,
    diameter,
    disjoint,
    normalize,
    translate_set,
    union_sets,
)


class LawKind(str, Enum):
    INTERNAL = "internal"
    STRONG_INTERNAL = "strong-internal"
    MONOTONE = "monotone"
    STRONG_MONOTONE = "strong-monotone"
    DISJOINT_MONOTONE = "disjoint-monotone"
    UNION_MONOTONE = "union-monotone"
    D_MONOTONE = "d-monotone"
    SHIFT_INVARIANT = "shift-invariant"
    SELF_SHIFT_INVARIANT = "self-shift-invariant"
    PART_SHIFT_INVARIANT = "part-shift-invariant"


@dataclass(frozen=True)
class Violation:
    inputs: tuple[str, ...]
    observed: str


@dataclass(frozen=True)
class LawReport:
    law: LawKind
    mean: MeanKind
    trials: int
    violations: tuple[Violation, ...]
    skipped: int


PROFILES = ("finite", "sequences", "towers", "intervals", "cantor", "mixed")


def _rq(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3, 4, 8, 16)) -> Q:
    d = rng.choice(dens)
    return Q(rng.randint(lo * d, hi * d), d)


def _gen_finite(rng) -> Finite:
    n = rng.randint(1, 8)
    pts = {_rq(rng, -10, 10) for _ in range(n)}
    return Finite(tuple(pts))


def _gen_seq(rng) -> GeomSeq:
    a = _rq(rng, -8, 8)
    w = rng.choice([Q(1), Q(-1), Q(2), Q(1, 2), Q(-1, 2)])
    r = rng.choice([Q(1, 2), Q(1, 3), Q(1, 4), Q(1, 5)])
    return GeomSeq(a, w, r)


def _gen_tower(rng) -> Tower:
    lvl = 2 if rng.random() < 0.9 else 3
    a = _rq(rng, -8, 8)
    w = rng.choice([Q(1), Q(-1), Q(1, 2)])
    r = rng.choice([Q(1, 4), Q(1, 5), Q(1, 6)])
    return Tower(lvl, a, w, r)


def _gen_interval(rng) -> Interval:
    a = _rq(rng, -10, 8)
    length = _rq(rng, 1, 6, dens=(1, 2, 4))
    return Interval(a, a + abs(length))


def _gen_cantor(rng) -> Cantor:
    m = rng.choice([2, 3])
    r = rng.choice([Q(1, 3), Q(1, 4)]) if m == 2 else rng.choice([Q(1, 4), Q(1, 5)])
    a = _rq(rng, -10, 8, dens=(1, 2, 4))
    length = Q(rng.randint(1, 5))
    return Cantor(a, a + length, m, r)


def _profile_block(rng, profile: str):
    if profile == "finite":
        return _gen_finite(rng)
    if profile == "sequences":
        return _gen_seq(rng)
    if profile == "towers":
        return _gen_tower(rng)
    if profile == "intervals":
        return _gen_interval(rng)
    if profile == "cantor":
        return _gen_cantor(rng)
    pick = rng.random()
    if pick < 0.3:
        return _gen_finite(rng)
    if pick < 0.55:
        return _gen_seq(rng)
    if pick < 0.65:
        return _gen_tower(rng)
    if pick < 0.85:
        return _gen_interval(rng)
    return _gen_cantor(rng)


def _gen_expr(rng, profile: str) -> SetExpr:
    parts: list[SetExpr] = [Leaf(_profile_block(rng, profile))]
    extra = rng.randint(0, 2) if profile == "mixed" else rng.randint(0, 1)
    for _ in range(extra):
        parts.append(Leaf(_profile_block(rng, profile)))
    if profile == "towers":
        # keep the profile contract: a tower must be present
        if not any(isinstance(p.block, Tower) for p in parts):
            parts[0] = Leaf(_gen_tower(rng))
    e: SetExpr = parts[0] if len(parts) == 1 else Union(tuple(parts))
    roll = rng.random()
    if roll < 0.25:
        e = Translate(e, _rq(rng, -20, 20))
    elif roll < 0.35 and profile != "cantor":
        # cuts stay on blocks that always support exact surgery
        if not any(isinstance(p, Leaf) and isinstance(p.block, Cantor)
                   for p in (parts if isinstance(e, Union) else [e])):
            cut_at = _rq(rng, -15, 15)
            e = CutBelow(e, cut_at) if rng.random() < 0.5 else CutAbove(e, cut_at)
    return e


def gen_corpus(seed: int, count: int, profile: str = "mixed") -> list[SetExpr]:
    """Deterministic corpus of normalizable expressions for one profile;
    ValidationError for a count below 1 or an unknown profile."""
    if count < 1:
        raise ValidationError("count must be at least 1")
    if profile not in PROFILES:
        raise ValidationError(f"unknown profile {profile!r}; choose from {PROFILES}")
    rng = random.Random(seed * 1_000_003 + zlib.crc32(profile.encode()) % 999_983)
    out: list[SetExpr] = []
    while len(out) < count:
        e = _gen_expr(rng, profile)
        try:
            normalize(e)
        except EmptyResult:
            continue  # a cut emptied the set; draw again
        out.append(e)
    return out


# ---------------------------------------------------------------------------
# law checking


def _between(lo: MeanValue, v: MeanValue, hi: MeanValue, tol: float):
    """lo <= v <= hi; None when any of the three is undefined."""
    below, above = order(lo, v, tol), order(v, hi, tol)
    return None if below is None or above is None else below <= 0 and above <= 0


def _disjoint(h1: BlockSet, h2: BlockSet):
    """True exactly when intersect(h1, h2) returns the empty set; otherwise
    False, or None for an undecidable pair, and callers skip either."""
    try:
        return disjoint(h1, h2)
    except IntersectionNotRepresentable:
        return None


class _Run:
    def __init__(self, law, mean):
        self.law = law
        self.mean = mean
        self.trials = 0
        self.skipped = 0
        self.violations: list[Violation] = []

    def skip(self):
        self.check(None, None)

    def check(self, condition, describe):
        """One trial: skipped when condition is None, a violation when it is
        false; describe() gives a violation's (inputs, observed), and is
        called for violations only."""
        self.trials += 1
        if condition is None:
            self.skipped += 1
        elif not condition:
            inputs, observed = describe()
            self.violations.append(Violation(tuple(inputs), observed))

    def report(self) -> LawReport:
        return LawReport(self.law, self.mean, self.trials,
                         tuple(self.violations), self.skipped)


def _shifts(h: BlockSet) -> list[Q]:
    d = diameter(h)
    base = d if d > 0 else Q(1)
    return [base + 1, 10 * base + 3, Q(1, 3), -(base + 1)]


def check_law(mean: MeanKind, law: LawKind, corpus: list[SetExpr],
              cfg: LadderConfig = DEFAULT_CONFIG) -> LawReport:
    """Instantiate one law for one mean over the corpus.

    Mean values compare through ``means.order``.  A strict inequality is
    only trusted between exact values.
    """
    mean, law = MeanKind(mean), LawKind(law)
    sets = [normalize(e) for e in corpus]
    run = _Run(law, mean)
    n = len(sets)
    tol = cfg.tol

    def kv(h):
        return mean_of(h, mean, cfg)

    def text(i):
        """The rendered corpus item i, for a violation that cites it."""
        return render(corpus[i])

    def pair(i):
        j = (i * 7 + 3) % n
        if j == i:
            j = (j + 1) % n
        return (i, j)

    def triple(i):
        _, j = pair(i)
        k = (i * 13 + 5) % n
        if k in (i, j):
            k = (k + 1) % n
        if k in (i, j):
            k = (k + 1) % n
        return (i, j, k)

    if law in (LawKind.INTERNAL, LawKind.STRONG_INTERNAL):
        for i, h in enumerate(sets):
            v, bd = kv(h), bounds(h)
            lo, hi = ((bd.acc_inf, bd.acc_sup) if law is LawKind.STRONG_INTERNAL
                      else (bd.inf, bd.sup))
            if lo is None:
                run.skip()
                continue
            run.check(_between(MeanValue.exact(lo), v, MeanValue.exact(hi), tol),
                      lambda: ((text(i),), f"K={v} outside [{lo}, {hi}]"))
    elif law in (LawKind.MONOTONE, LawKind.STRONG_MONOTONE, LawKind.DISJOINT_MONOTONE):
        for i in range(n):
            a, b = pair(i)
            h1, h2 = sets[a], sets[b]
            shift = None
            if law is LawKind.DISJOINT_MONOTONE:
                v1, v2 = kv(h1), kv(h2)
                sign = order(v1, v2, tol)
                if sign is None or _disjoint(h1, h2) is not True:
                    run.skip()
                    continue
                if sign > 0:
                    h1, h2, v1, v2 = h2, h1, v2, v1
            else:
                b1, b2 = bounds(h1), bounds(h2)
                if law is LawKind.STRONG_MONOTONE:
                    top1, low2 = b1.acc_sup, b2.acc_inf
                    if top1 is None or low2 is None:
                        run.skip()
                        continue
                else:
                    top1, low2 = b1.sup, b2.inf
                v1 = kv(h1)
                if not v1.is_defined:
                    run.skip()
                    continue
                shift = top1 - low2 + i % 3
                h2 = translate_set(h2, shift)
                v2 = kv(h2)
                if not v2.is_defined:
                    run.skip()
                    continue
            vu = kv(union_sets(h1, h2))
            run.check(_between(v1, vu, v2, tol),
                      lambda: ((text(a), text(b)) + (() if shift is None else (f"shift={shift}",)),
                               f"K1={v1} Ku={vu} K2={v2}"))
    elif law is LawKind.UNION_MONOTONE:
        for i in range(n):
            ia, ib, ic = triple(i)
            a, b, c = sets[ia], sets[ib], sets[ic]
            va = kv(a)
            if not va.is_defined or _disjoint(b, c) is not True:
                run.skip()
                continue
            unions = []
            for parts in ((b,), (c,), (b, c)):  # K(A u B), K(A u C), K(A u B u C)
                v = kv(union_sets(a, *parts))
                if not v.is_defined:
                    break
                unions.append(v)
            if len(unions) < 3:
                run.skip()
                continue
            vab, vac, vabc = unions
            sab, sac, sabc = (order(va, v, tol) for v in unions)
            checked = bad = False
            for s in (-1, 1):  # K(A) at or below both unions, then at or above both
                if s * sab < 0 or s * sac < 0:
                    continue
                checked = True
                strict = va.is_exact and any(sv == s and v.is_exact
                                             for sv, v in ((sab, vab), (sac, vac)))
                bad = bad or sabc == -s or (strict and vabc.is_exact and sabc == 0)
            run.check(not bad if checked else None,
                      lambda: ((text(ia), text(ib), text(ic)),
                               f"Ka={va} Kab={vab} Kac={vac} Kabc={vabc}"))
    elif law is LawKind.D_MONOTONE:
        for i in range(n):
            a, b = pair(i)
            L, B = sets[a], sets[b]
            vl = kv(L)
            if not vl.is_defined or _disjoint(L, B) is not True:
                run.skip()
                continue
            lb = union_sets(L, B)
            vlb = kv(lb)
            if not vlb.is_defined:
                run.skip()
                continue
            # the law needs K(L u B) strictly on the side of x from K(L), both exact
            side = order(vlb, vl, tol) if vl.is_exact and vlb.is_exact else None
            for x in _shifts(lb):
                s = 1 if x > 0 else -1
                if side != s:
                    run.skip()
                    continue
                bx = translate_set(B, x)
                if _disjoint(lb, bx) is not True:
                    run.skip()
                    continue
                vfull = kv(union_sets(lb, bx))
                if not vfull.is_exact:
                    run.skip()
                    continue
                run.check(order(vfull, vlb, tol) == s,
                          lambda: ((text(a), text(b), f"x={x}"),
                                   f"KL={vl} KLB={vlb} Kfull={vfull}"))
    elif law is LawKind.SHIFT_INVARIANT:
        for i, h in enumerate(sets):
            v = kv(h)
            if not v.is_defined:
                run.skip()
                continue
            for x in _shifts(h):
                vs = kv(translate_set(h, x))
                sign = order(vs, v.shifted(x), tol)
                run.check(None if sign is None else sign == 0,
                          lambda: ((text(i), f"x={x}"), f"K(H+x)={vs} vs K(H)+x={v.shifted(x)}"))
    elif law is LawKind.SELF_SHIFT_INVARIANT:
        for i, h in enumerate(sets):
            v = kv(h)
            if not v.is_defined:
                run.skip()
                continue
            d = diameter(h)
            for mult in (1, 2, 7):
                x = d + mult  # strict separation keeps the union overlap-free
                vu = kv(union_sets(h, translate_set(h, x)))
                sign = order(vu, v.shifted(x / 2), tol)
                run.check(None if sign is None else sign == 0,
                          lambda: ((text(i), f"x={x}"),
                                   f"K(H u H+x)={vu} vs K(H)+x/2={v.shifted(x / 2)}"))
    elif law is LawKind.PART_SHIFT_INVARIANT:
        for i in range(n):
            a, b = pair(i)
            h1, h2 = sets[a], sets[b]
            if _disjoint(h1, h2) is not True:
                run.skip()
                continue
            v0 = kv(union_sets(h1, h2))
            if not v0.is_defined:
                run.skip()
                continue
            for x in _shifts(h2):
                h2x = translate_set(h2, x)
                if _disjoint(h1, h2x) is not True:
                    run.skip()
                    continue
                vx = kv(union_sets(h1, h2x))
                sign, exact = order(vx, v0, tol), vx.is_exact and v0.is_exact
                if sign is None or (sign == 0 and not exact):
                    run.skip()  # outside the domain, or the sign is not resolvable at tolerance
                    continue
                # K moves the way of x, and by at most |x|
                s = 1 if x > 0 else -1
                run.check(sign == s and order(vx, v0.shifted(x), tol) != s,
                          lambda: ((text(a), text(b), f"x={x}"),
                                   f"K(H1 u H2+x)-K(H1 u H2)={vx.value - v0.value} vs x={x}"
                                   if exact else
                                   f"difference {vx.as_float() - v0.as_float():.6g} vs x={x}"))
    else:
        raise ValueError(f"unhandled law {law}")
    return run.report()


def replay_violation(mean: MeanKind, violation: Violation,
                     cfg: LadderConfig = DEFAULT_CONFIG):
    """Re-normalize the recorded inputs; the caller re-runs the check.

    Expression items come back as BlockSets, recorded parameters
    (``x=...``, ``shift=...``) as rationals.
    """
    from .dsl import parse

    out = []
    for item in violation.inputs:
        name, sep, rhs = item.partition("=")
        if sep and name in ("x", "shift"):
            out.append(Q(rhs))
        else:
            out.append(normalize(parse(item)))
    return out
