"""Property harness for the mean axioms over generated corpora.

Each law is one row of ``check_law``'s table, instantiated with corpus
elements and deterministic shifts.  Inputs outside a law's hypotheses are
skipped trials, never violations, and each names the hypothesis that failed.
A row reads its hypotheses first, the corpus means before disjointness, and
stops at the first that fails: a skipped trial builds no translate or union
and evaluates no mean of its conclusion, so an error that only the conclusion
would raise is not raised for it.  Disjointness and union are one call,
sets.disjoint_union, which builds a union only for a disjoint pair.  The
harness never claims a law holds, only that no violation turned up in the
trials it ran, and every recorded violation replays from its rendered inputs.
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
    disjoint_union,
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


# the mixed profile draws the first block kind whose odds exceed rng.random()
_MIXED = ((0.3, _gen_finite), (0.55, _gen_seq), (0.65, _gen_tower),
          (0.85, _gen_interval), (1, _gen_cantor))


def _gen_mixed(rng):
    pick = rng.random()
    for odds, gen in _MIXED:
        if pick < odds:
            return gen(rng)


_GENERATORS = {"finite": _gen_finite, "sequences": _gen_seq, "towers": _gen_tower,
               "intervals": _gen_interval, "cantor": _gen_cantor, "mixed": _gen_mixed}
PROFILES = tuple(_GENERATORS)
#: the largest corpus gen_corpus draws: a law check over it takes seconds,
#: where a count like 10**30 would draw sets until memory ran out
CORPUS_MAX = 10_000


def _gen_expr(rng, profile: str) -> SetExpr:
    gen = _GENERATORS[profile]
    parts: list[SetExpr] = [Leaf(gen(rng))]
    extra = rng.randint(0, 2) if profile == "mixed" else rng.randint(0, 1)
    for _ in range(extra):
        parts.append(Leaf(gen(rng)))
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
    ValidationError for a count outside 1..CORPUS_MAX or an unknown profile."""
    if count < 1:
        raise ValidationError("count must be at least 1")
    if count > CORPUS_MAX:
        raise ValidationError(f"count must be at most {CORPUS_MAX}")
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

# Why a trial was skipped: each names the hypothesis that failed.
UNDEFINED = "a mean is undefined"
NOT_DISJOINT = "the sets are not known to be disjoint"
NO_ACCUMULATION = "a set has no accumulation point"
NOT_ONE_SIDE = "K(A) is not on one side of both unions"
WRONG_SIDE = "K(L u B) is not exactly on the side of x from K(L)"
INEXACT = "K(L u B u B+x) is not exact"
UNRESOLVED = "the sign is not resolvable at tolerance"


def _union_if_disjoint(h1: BlockSet, h2: BlockSet):
    """h1 u h2 when intersect(h1, h2) returns the empty set; otherwise None,
    for a meeting or an undecidable pair, and callers skip either."""
    try:
        return disjoint_union(h1, h2)
    except IntersectionNotRepresentable:
        return None


def _shifts(h: BlockSet) -> list[Q]:
    """The translates a shift law is tried at, from h's diameter (1 for a
    point): the library's only translate grid, since a defect curve is read
    as its exact tails."""
    d = diameter(h)
    base = d if d > 0 else Q(1)
    return [base + 1, 10 * base + 3, Q(1, 3), -(base + 1)]


def check_law(mean: MeanKind, law: LawKind, corpus: list[SetExpr],
              cfg: LadderConfig = DEFAULT_CONFIG) -> LawReport:
    """Instantiate one law for one mean over the corpus.

    A law's row maps a corpus index to one trial, or to a list of one trial
    per translate: the reason it was skipped, or ``(holds, describe)``, where
    describe() gives a violation's (inputs, observed).  Mean values compare
    through ``means.order``; a strict step is trusted only between exact values.
    """
    mean, law = MeanKind(mean), LawKind(law)
    sets = [normalize(e) for e in corpus]
    n = len(sets)
    tol = cfg.tol

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

    def between(lo, v, hi, describe):
        """The trial lo <= v <= hi."""
        below, above = order(lo, v, tol), order(v, hi, tol)
        if below is None or above is None:
            return UNDEFINED
        return below <= 0 and above <= 0, describe

    def same(i, x, name, v, name_x, vx):
        """The trial v == vx, for item i at translate x."""
        sign = order(v, vx, tol)
        if sign is None:
            return UNDEFINED
        return sign == 0, lambda: ((text(i), f"x={x}"), f"{name}={v} vs {name_x}={vx}")

    def internal(i):
        h = sets[i]
        v, bd = mean_of(h, mean, cfg), bounds(h)
        lo, hi = ((bd.acc_inf, bd.acc_sup) if law is LawKind.STRONG_INTERNAL
                  else (bd.inf, bd.sup))
        if lo is None:
            return NO_ACCUMULATION
        return between(MeanValue.exact(lo), v, MeanValue.exact(hi),
                       lambda: ((text(i),), f"K={v} outside [{lo}, {hi}]"))

    def monotone(i):
        a, b = pair(i)
        h1, h2 = sets[a], sets[b]
        b1, b2 = bounds(h1), bounds(h2)
        top1, low2 = ((b1.acc_sup, b2.acc_inf) if law is LawKind.STRONG_MONOTONE
                      else (b1.sup, b2.inf))
        if top1 is None or low2 is None:
            return NO_ACCUMULATION
        v1 = mean_of(h1, mean, cfg)
        if not v1.is_defined:
            return UNDEFINED
        shift = top1 - low2 + i % 3
        h2 = translate_set(h2, shift)
        v2 = mean_of(h2, mean, cfg)
        if not v2.is_defined:
            return UNDEFINED
        vu = mean_of(union_sets(h1, h2), mean, cfg)
        return between(v1, vu, v2, lambda: ((text(a), text(b), f"shift={shift}"),
                                            f"K1={v1} Ku={vu} K2={v2}"))

    def disjoint_monotone(i):
        a, b = pair(i)
        h1, h2 = sets[a], sets[b]
        v1, v2 = mean_of(h1, mean, cfg), mean_of(h2, mean, cfg)
        sign = order(v1, v2, tol)
        if sign is None:
            return UNDEFINED
        if (u := _union_if_disjoint(h1, h2)) is None:
            return NOT_DISJOINT
        if sign > 0:
            v1, v2 = v2, v1
        vu = mean_of(u, mean, cfg)
        return between(v1, vu, v2, lambda: ((text(a), text(b)), f"K1={v1} Ku={vu} K2={v2}"))

    def union_monotone(i):
        ia, ib, ic = triple(i)
        a, b, c = sets[ia], sets[ib], sets[ic]
        va = mean_of(a, mean, cfg)
        if not va.is_defined:
            return UNDEFINED
        if (bc := _union_if_disjoint(b, c)) is None:
            return NOT_DISJOINT
        unions = []
        for part in (b, c, bc):  # K(A u B), K(A u C), K(A u B u C)
            v = mean_of(union_sets(a, part), mean, cfg)
            if not v.is_defined:
                return UNDEFINED
            unions.append(v)
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
        if not checked:
            return NOT_ONE_SIDE
        return not bad, lambda: ((text(ia), text(ib), text(ic)),
                                 f"Ka={va} Kab={vab} Kac={vac} Kabc={vabc}")

    def d_monotone(i):
        a, b = pair(i)
        L, B = sets[a], sets[b]
        vl = mean_of(L, mean, cfg)
        if not vl.is_defined:
            return UNDEFINED
        if (lb := _union_if_disjoint(L, B)) is None:
            return NOT_DISJOINT
        vlb = mean_of(lb, mean, cfg)
        if not vlb.is_defined:
            return UNDEFINED
        # the law needs K(L u B) strictly on the side of x from K(L), both exact
        side = order(vlb, vl, tol) if vl.is_exact and vlb.is_exact else None

        def at(x):
            s = 1 if x > 0 else -1
            if side != s:
                return WRONG_SIDE
            if (full := _union_if_disjoint(lb, translate_set(B, x))) is None:
                return NOT_DISJOINT
            vfull = mean_of(full, mean, cfg)
            if not vfull.is_exact:
                return INEXACT
            return order(vfull, vlb, tol) == s, lambda: ((text(a), text(b), f"x={x}"),
                                                        f"KL={vl} KLB={vlb} Kfull={vfull}")
        return [at(x) for x in _shifts(lb)]

    def shift_invariant(i):
        h = sets[i]
        v = mean_of(h, mean, cfg)
        if not v.is_defined:
            return UNDEFINED
        return [same(i, x, "K(H+x)", mean_of(translate_set(h, x), mean, cfg),
                     "K(H)+x", v.shifted(x)) for x in _shifts(h)]

    def self_shift_invariant(i):
        h = sets[i]
        v = mean_of(h, mean, cfg)
        if not v.is_defined:
            return UNDEFINED
        d = diameter(h)  # x past the diameter keeps the union overlap-free
        return [same(i, x, "K(H u H+x)", mean_of(disjoint_union(h, translate_set(h, x)), mean, cfg),
                     "K(H)+x/2", v.shifted(x / 2)) for x in (d + 1, d + 2, d + 7)]

    def part_shift_invariant(i):
        a, b = pair(i)
        h1, h2 = sets[a], sets[b]
        if (u := _union_if_disjoint(h1, h2)) is None:
            return NOT_DISJOINT
        v0 = mean_of(u, mean, cfg)
        if not v0.is_defined:
            return UNDEFINED

        def at(x):
            if (ux := _union_if_disjoint(h1, translate_set(h2, x))) is None:
                return NOT_DISJOINT
            vx = mean_of(ux, mean, cfg)
            sign, exact = order(vx, v0, tol), vx.is_exact and v0.is_exact
            if sign is None:
                return UNDEFINED
            if sign == 0 and not exact:
                return UNRESOLVED
            # K moves the way of x, and by at most |x|
            s = 1 if x > 0 else -1
            return sign == s and order(vx, v0.shifted(x), tol) != s, lambda: (
                (text(a), text(b), f"x={x}"),
                f"K(H1 u H2+x)-K(H1 u H2)={vx.value - v0.value} vs x={x}" if exact else
                f"difference {vx.as_float() - v0.as_float():.6g} vs x={x}")
        return [at(x) for x in _shifts(h2)]

    row = {LawKind.INTERNAL: internal, LawKind.STRONG_INTERNAL: internal,
           LawKind.MONOTONE: monotone, LawKind.STRONG_MONOTONE: monotone,
           LawKind.DISJOINT_MONOTONE: disjoint_monotone, LawKind.UNION_MONOTONE: union_monotone,
           LawKind.D_MONOTONE: d_monotone, LawKind.SHIFT_INVARIANT: shift_invariant,
           LawKind.SELF_SHIFT_INVARIANT: self_shift_invariant,
           LawKind.PART_SHIFT_INVARIANT: part_shift_invariant}[law]
    trials = skipped = 0
    violations = []
    for i in range(n):
        out = row(i)
        for trial in out if isinstance(out, list) else (out,):
            trials += 1
            if isinstance(trial, str):
                skipped += 1
            elif not trial[0]:
                inputs, observed = trial[1]()
                violations.append(Violation(tuple(inputs), observed))
    return LawReport(law, mean, trials, tuple(violations), skipped)


def replay_violation(violation: Violation):
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
