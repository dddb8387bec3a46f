"""Small/big classification, duality, disjointness, witness constructions."""

import itertools
from fractions import Fraction as Q

import pytest

from setmeans import (
    Answer,
    Cantor,
    DomainViolation,
    Finite,
    GeomSeq,
    IntersectionNotRepresentable,
    Interval,
    MeanKind,
    Method,
    SetMeansError,
    Tower,
    Verdict,
    build_iso_witness,
    build_iso_witness_staged,
    comparable,
    gen_corpus,
    intersect,
    is_big_for,
    is_small_for,
    k_disjoint,
    mean_of,
    normalize,
    normalize_blocks,
    parse,
    translate_set,
    union_sets,
    witness_stage_ratios,
    DEFAULT_CONFIG,
)
from setmeans.means import iso_growth, order, weight_of
from setmeans.laws import PROFILES
from test_weigh import translate_grid


def bset(*blocks):
    return normalize_blocks(list(blocks))


def seq(a, w=Q(1), r=Q(1, 2)):
    return GeomSeq(Q(a), Q(w), Q(r))


def _remove(h, s):
    """h minus s when representable: whole-block matches or finite points."""
    if s.is_empty:
        return h
    remaining = list(h.blocks)
    loose_points = set()
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
            loose_points -= set(b.points)
            if pts:
                out.append(Finite(pts))
        else:
            out.append(b)
    # a removed point inside an infinite block is not representable
    if any(b.inf <= p <= b.sup for b in out for p in loose_points):
        return None
    return normalize_blocks(out)


def sampler_probe(v, h, kind, cfg, xmax=3):
    """Evaluate the defining equalities of smallness at sampled translates.

    The oracle of the closed forms: it can only refute (NO, with a translate
    x where the mean moves) or stay INCONCLUSIVE; skipped probes are
    recorded in the evidence.
    """
    ref = mean_of(h, kind, cfg)
    evidence = []
    for x in translate_grid(xmax, h):
        lhs = mean_of(union_sets(h, translate_set(v, x)), kind, cfg)
        sign = order(lhs, ref, cfg.tol)
        if sign is None:
            evidence.append(f"x={x}: union left the domain ({lhs.reason}); skipped")
        else:
            evidence.append(f"x={x}: K(H u V+x)={lhs} vs K(H)={ref}")
            if sign:
                return Verdict(Answer.NO, Method.SAMPLER, evidence)
        try:
            diff = _remove(h, intersect(h, translate_set(v, x)))
        except IntersectionNotRepresentable:
            evidence.append(f"x={x}: difference not representable; skipped")
            continue
        if diff is None or diff.is_empty:
            evidence.append(f"x={x}: removal not representable or empties the set; skipped")
            continue
        rhs = mean_of(diff, kind, cfg)
        sign = order(rhs, ref, cfg.tol)
        if sign is None:
            evidence.append(f"x={x}: difference left the domain ({rhs.reason}); skipped")
        else:
            evidence.append(f"x={x}: K(H - (V+x))={rhs}")
            if sign:
                return Verdict(Answer.NO, Method.SAMPLER, evidence)
    return Verdict(Answer.INCONCLUSIVE, Method.SAMPLER, evidence)


def test_verdict_invariant():
    with pytest.raises(ValueError):
        Verdict(Answer.INCONCLUSIVE, Method.CLOSED_FORM)


def test_small_examples():
    assert is_small_for(bset(Finite((Q(7),))), bset(seq(0)), MeanKind.LIS).answer is Answer.YES
    assert (
        is_small_for(bset(seq(0)), bset(Tower(2, Q(0), Q(1), Q(1, 4))), MeanKind.ACC).answer
        is Answer.YES
    )
    v = is_small_for(bset(seq(0, r=Q(1, 2))), bset(seq(0, r=Q(1, 4))), MeanKind.ISO)
    assert v.answer is Answer.NO  # counts grow at degree 1 on both sides


def test_small_avg_null_sets():
    h = bset(Interval(Q(0), Q(1)))
    assert is_small_for(bset(Finite((Q(5),))), h, MeanKind.AVG).answer is Answer.YES
    assert is_small_for(bset(seq(9)), h, MeanKind.AVG).answer is Answer.YES
    assert is_small_for(bset(Cantor(Q(2), Q(3), 2, Q(1, 3))), h, MeanKind.AVG).answer is Answer.YES
    assert is_small_for(bset(Interval(Q(4), Q(5))), h, MeanKind.AVG).answer is Answer.NO


def test_big_examples():
    v = is_big_for(bset(Tower(2, Q(0), Q(1), Q(1, 4))), bset(seq(0)), MeanKind.ACC)
    assert v.answer is Answer.YES
    v = is_big_for(bset(Interval(Q(0), Q(1))), bset(Interval(Q(2), Q(4))), MeanKind.AVG)
    assert v.answer is Answer.NO
    v = is_big_for(bset(seq(0)), bset(seq(3)), MeanKind.ISO)
    assert v.answer is Answer.NO  # equal growth, ratio tends to one


def test_iso_tower_degrees():
    tower = bset(Tower(2, Q(0), Q(1), Q(1, 4)))
    s = bset(seq(0))
    assert is_big_for(tower, s, MeanKind.ISO).answer is Answer.YES
    assert is_small_for(s, tower, MeanKind.ISO).answer is Answer.YES
    assert is_small_for(tower, s, MeanKind.ISO).answer is Answer.NO


def test_comparable_examples():
    v = comparable(bset(Tower(2, Q(0), Q(1), Q(1, 4))), bset(seq(0)), MeanKind.ACC)
    assert v.answer is Answer.NO
    v = comparable(bset(Interval(Q(0), Q(1))), bset(Interval(Q(5), Q(6))), MeanKind.AVG)
    assert v.answer is Answer.YES
    v = comparable(bset(seq(0)), bset(seq(1, r=Q(1, 3))), MeanKind.LIS)
    assert v.answer is Answer.YES


def test_classify_against_a_reference_set_outside_the_domain():
    # seq(0,1,1/2) has no arith mean, so no verdict of the bundle is defined
    from setmeans.cli import run_command

    code, rep = run_command(["classify", "--mean", "arith", "--of", "seq(0,1,1/2)", "{1}"])
    assert code == 0
    assert rep["result"]["bundle"] == dict.fromkeys(("small", "big", "comparable"))
    assert rep["diagnostics"] == [f"{name}: undefined (reference set is outside Dom(arith))"
                                  for name in ("small", "big", "comparable")]


def test_comparable_refuses_a_reference_set_outside_the_domain():
    with pytest.raises(DomainViolation, match=r"reference set is outside Dom\(arith\)"):
        comparable(normalize(parse("seq(0,1,1/2)")), normalize(parse("{1}")), MeanKind.ARITH)


def test_duality_on_corpus():
    corpus = [normalize(e) for e in gen_corpus(19, 60, "mixed")]
    pairs = [(corpus[i], corpus[(i * 7 + 3) % len(corpus)]) for i in range(len(corpus))]
    checked = 0
    for v, h in pairs:
        for kind in (MeanKind.ACC, MeanKind.LIS, MeanKind.AVG):
            try:
                small = is_small_for(v, h, kind)
                big = is_big_for(h, v, kind)
            except DomainViolation:
                continue
            assert small.answer == big.answer
            checked += 1
    assert checked > 50


def test_small_family_closed_under_union():
    finites = [normalize(e) for e in gen_corpus(29, 12, "finite")]
    seqs = [normalize(e) for e in gen_corpus(31, 12, "sequences")]
    towers = [normalize(e) for e in gen_corpus(33, 12, "towers")]
    checked = 0
    combos = [
        (MeanKind.LIS, finites, seqs),
        (MeanKind.ISO, finites, seqs),
        (MeanKind.ACC, seqs, towers),
    ]
    for kind, smalls, hosts in combos:
        for i, h in enumerate(hosts):
            v1 = smalls[i % len(smalls)]
            v2 = smalls[(i * 5 + 1) % len(smalls)]
            try:
                a = is_small_for(v1, h, kind)
                b = is_small_for(v2, h, kind)
            except DomainViolation:
                continue
            if a.answer is Answer.YES and b.answer is Answer.YES:
                u = union_sets(v1, v2)
                assert is_small_for(u, h, kind).answer is Answer.YES
                checked += 1
    assert checked > 20


def test_sampler_consistency_with_closed_forms():
    # no closed-form YES may be refuted; a finite H under acc once read YES
    # for every finite V although a far translate moves its mean
    checked = 0
    for profile in ("mixed", "finite"):
        corpus = [normalize(e) for e in gen_corpus(37, 30, profile)]
        for i, h in enumerate(corpus):
            v = corpus[(i * 11 + 2) % len(corpus)]
            for kind in (MeanKind.ACC, MeanKind.LIS, MeanKind.AVG):
                try:
                    closed = is_small_for(v, h, kind)
                except DomainViolation:
                    continue
                if closed.answer is Answer.YES:
                    probe = sampler_probe(v, h, kind, DEFAULT_CONFIG)
                    assert probe.answer is not Answer.NO, (profile, kind, h, v)
                    checked += 1
    assert checked > 10


def test_sampler_finds_witnesses():
    h = bset(Finite((Q(0), Q(1))))
    v = bset(Finite((Q(5),)))
    probe = sampler_probe(v, h, MeanKind.ARITH, DEFAULT_CONFIG)
    assert probe.answer is Answer.NO
    assert probe.method is Method.SAMPLER


def test_k_disjoint_examples():
    a = bset(Finite((Q(1), Q(2))))
    b = bset(Finite((Q(1, 2), Q(1), Q(3))))
    assert k_disjoint(a, b, MeanKind.LIS).answer is Answer.YES
    v = k_disjoint(bset(Interval(Q(0), Q(2))), bset(Interval(Q(1), Q(3))), MeanKind.AVG)
    assert v.answer is Answer.NO
    # a point is in Dom(avg), and {1} is not small to it: not globally small
    v = k_disjoint(bset(Interval(Q(0), Q(1))), bset(Finite((Q(1),))), MeanKind.AVG)
    assert v.answer is Answer.NO
    for kind in (MeanKind.ARITH, MeanKind.ACC, MeanKind.ISO, MeanKind.AVG):
        assert k_disjoint(a, b, kind).answer is Answer.NO, kind
    assert k_disjoint(bset(seq(0)), bset(seq(0)), MeanKind.LIS).answer is Answer.NO


def test_global_disjointness_implies_weak():
    # a globally small set is small to every member of the domain, so to
    # both sets; the second partner shares h1's finite points, so that some
    # nonempty intersections are finite
    checked, shared = 0, 0
    for profile in PROFILES:
        corpus = [normalize(e) for e in gen_corpus(41, 20, profile)]
        n = len(corpus)
        for i, h1 in enumerate(corpus):
            pts, other = h1.finite_points(), corpus[(i * 7 + 2) % n]
            partners = (corpus[(i * 5 + 1) % n],
                        union_sets(other, bset(Finite(pts))) if pts else other)
            for h2, kind in itertools.product(partners, MeanKind):
                try:
                    strong = k_disjoint(h1, h2, kind)
                    weak = k_disjoint(h1, h2, kind, weak=True)
                except SetMeansError:
                    continue
                if strong.answer is Answer.YES:
                    assert weak.answer is Answer.YES, (kind, h1, h2)
                    checked += 1
                    shared += not intersect(h1, h2).is_empty
    assert checked > 500 and shared > 0


def test_k_disjoint_weak():
    inter_carrier = bset(seq(0), Interval(Q(2), Q(3)))
    other = bset(seq(0), Interval(Q(5), Q(6)))
    # intersection is the sequence: small for avg (null), not for lis
    v = k_disjoint(inter_carrier, other, MeanKind.AVG, weak=True)
    assert v.answer is Answer.YES
    v = k_disjoint(inter_carrier, other, MeanKind.LIS, weak=True)
    assert v.answer is Answer.NO


def test_iso_growth_profiles():
    # terms (anchor, c, r): the count coefficient is the sum of c * (1/ln(1/r))**d
    d, terms = iso_growth(bset(Finite((Q(1), Q(2)))))
    assert d == 0 and terms == ((Q(3, 2), 2, None),)
    d, terms = iso_growth(bset(seq(0), seq(1, r=Q(1, 3))))
    assert d == 1 and terms == ((0, 1, Q(1, 2)), (1, 1, Q(1, 3)))
    d, terms = iso_growth(bset(Tower(2, Q(0), Q(1), Q(1, 4)), seq(5)))
    assert d == 2 and terms == ((0, 1, Q(1, 4)),)
    half, third = (weight_of(bset(seq(0, r=r)), MeanKind.ISO) for r in (Q(1, 2), Q(1, 3)))
    assert half.compare_magnitude(half) == 0
    assert half.compare_magnitude(third) == 1  # 1/log2 > 1/log3


def test_witness_big_trend():
    h2 = bset(seq(0))
    witness, stages = build_iso_witness_staged(h2, "big", 6)
    ratios = [r for _, r in witness_stage_ratios(witness, h2, stages)]
    assert len(ratios) >= 3
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_witness_big_skips_its_empty_stages():
    # m_(1/n) is 0 up to n = 200 here: the first stage found by bisection is
    # the first a scan over n finds, and no stage at all is a domain error
    from setmeans.sets import isolated_count

    h2 = normalize(parse("seq(0,1/100,1/2)"))
    depth = 230
    witness, stages = build_iso_witness_staged(h2, "big", depth)
    assert stages == tuple(Q(1, n) for n in range(2, depth + 2)
                           if isolated_count(h2, Q(1, n)))
    assert stages[0] == Q(1, 200)
    with pytest.raises(DomainViolation, match="no stage produced any points"):
        build_iso_witness_staged(h2, "big", 198)


def test_witness_small_trend():
    h2 = bset(seq(0))
    witness, stages = build_iso_witness_staged(h2, "small", 6)
    assert len(witness.finite_points()) == 6
    ratios = [r for _, r in witness_stage_ratios(witness, h2, stages)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_witness_avoids_collisions():
    # points of the reference set sit below its least accumulation point here
    h2 = bset(GeomSeq(Q(0), Q(-1), Q(1, 2)))
    witness = build_iso_witness(h2, "big", 4)
    from setmeans import contains

    for p in witness.finite_points():
        assert not contains(h2, p)


def test_witness_arguments_are_validated():
    from setmeans import ValidationError

    h2 = bset(seq(0))
    for which, depth in (("medium", 3), ("small", 1), ("big", -1)):
        with pytest.raises(ValidationError):
            build_iso_witness(h2, which, depth)
    # a ValidationError is a ValueError too, as before
    with pytest.raises(ValueError):
        build_iso_witness(h2, "big", 1)


def test_witness_domain_violations():
    with pytest.raises(DomainViolation):
        build_iso_witness(bset(Finite((Q(1), Q(2)))), "big", 3)
    with pytest.raises(DomainViolation):
        build_iso_witness(bset(Interval(Q(0), Q(1))), "big", 3)


@pytest.mark.parametrize("kind, h, v", [
    pytest.param("lis", "seq(0,1,1/2) U [3,4]", "seq(5,1,1/3) U [7,9]", id="lis"),
    pytest.param("avg", "seq(0,1,1/2) U [3,4]", "seq(5,1,1/3) U [7,9]", id="avg"),
    # two classes of count terms: the mean is an enclosure, and no verdict needs it
    pytest.param("iso", "seq(0,1,1/2) U seq(1,1,1/3)", "seq(5,1,1/2)", id="iso"),
])
def test_classify_command_evaluates_no_mean(monkeypatch, kind, h, v):
    from setmeans import means
    from setmeans.cli import run_command

    evaluated = []
    mean = means._mean
    monkeypatch.setattr(means, "_mean", lambda g, *a: evaluated.append(g) or mean(g, *a))
    code, rep = run_command(["classify", "--mean", kind, "--of", h, v])
    assert code == 0
    assert None not in rep["result"]["bundle"].values()
    # the domains of H and V are read from their Weights or bounds
    assert evaluated == []


@pytest.mark.parametrize("kind", ["arith", "lis", "acc", "avg", "iso"])
@pytest.mark.parametrize("weak", [False, True], ids=["global", "weak"])
def test_disjoint_command_evaluates_no_mean(monkeypatch, kind, weak):
    from setmeans import means
    from setmeans.cli import run_command

    evaluated = []
    mean = means._mean
    monkeypatch.setattr(means, "_mean", lambda g, *a: evaluated.append(g) or mean(g, *a))
    # operands in Dom(kind) that meet
    h1, h2 = {"arith": ("{0, 1}", "{1, 2}"), "avg": ("[0,1] U [2,3]", "[1/2,5/2]")}.get(
        kind, ("seq(0,1,1/2) U seq(1,1,1/3)", "seq(0,1,1/2) U {5}"))
    code, rep = run_command(["disjoint", "--mean", kind, *(["--weak"] if weak else []), h1, h2])
    assert code == 0 and rep["result"]["answer"] in ("YES", "NO")
    assert evaluated == []


@pytest.mark.parametrize("argv, digest", [
    (["witness", "--iso-small", "--depth", "8", "tower(2,0,1/4)"],
     "85f6e15b22e86478180b13930859ba1c6a1b52ab486e25c1dd4754e46cee042f"),
    (["witness", "--iso-big", "--depth", "10", "seq(0,1,1/2) U tower(2,1,1/4)"],
     "6c61e4a4764b32ff6cc012dad5eb5f5dcbc7afbed538f6fed68c6fe3c9636e73"),
])
def test_witness_measures_each_distance_once(monkeypatch, argv, digest):
    # the counts m_eps at every stage come from one isolation profile of H2,
    # and each witness point is measured once for all stages
    import collections
    import hashlib
    import json

    from setmeans import blocks, sets
    from setmeans.cli import run_command

    calls = collections.Counter()
    real = blocks.block_min_dist

    def counted(b, x):
        calls[b, x] += 1
        return real(b, x)

    monkeypatch.setattr(blocks, "block_min_dist", counted)
    monkeypatch.setattr(sets, "block_min_dist", counted, raising=False)
    code, rep = run_command(argv)
    assert code == 0
    assert calls and max(calls.values()) == 1
    # the report is byte for byte the one the per-eps enumeration gave, but
    # for its version: the pins hold the report as 0.2.0 wrote it
    assert rep["version"] == "0.3.0"
    rep["version"] = "0.2.0"
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest
