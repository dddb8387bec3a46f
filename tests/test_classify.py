"""Small/big classification, duality, disjointness, witness constructions."""

from fractions import Fraction as Q

import pytest

from setmeans import (
    Answer,
    Cantor,
    DomainViolation,
    Finite,
    GeomSeq,
    Interval,
    MeanKind,
    Method,
    Tower,
    Verdict,
    build_iso_witness,
    build_iso_witness_staged,
    comparable,
    gen_corpus,
    is_big_for,
    is_small_for,
    k_disjoint,
    normalize,
    normalize_blocks,
    sampler_probe,
    union_sets,
    witness_stage_ratios,
    DEFAULT_CONFIG,
)
from setmeans.classify import iso_growth, iso_coeff_compare


def bset(*blocks):
    return normalize_blocks(list(blocks))


def seq(a, w=Q(1), r=Q(1, 2)):
    return GeomSeq(Q(a), Q(w), Q(r))


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
    corpus = [normalize(e) for e in gen_corpus(37, 30, "mixed")]
    checked = 0
    for i, h in enumerate(corpus):
        v = corpus[(i * 11 + 2) % len(corpus)]
        for kind in (MeanKind.ACC, MeanKind.LIS, MeanKind.AVG):
            try:
                closed = is_small_for(v, h, kind)
            except DomainViolation:
                continue
            if closed.answer is Answer.YES:
                probe = sampler_probe(v, h, kind, DEFAULT_CONFIG)
                assert probe.answer is not Answer.NO
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
    v = k_disjoint(bset(Interval(Q(0), Q(1))), bset(Finite((Q(1),))), MeanKind.AVG)
    assert v.answer is Answer.YES


def test_k_disjoint_weak():
    inter_carrier = bset(seq(0), Interval(Q(2), Q(3)))
    other = bset(seq(0), Interval(Q(5), Q(6)))
    # intersection is the sequence: small for avg (null), not for lis
    v = k_disjoint(inter_carrier, other, MeanKind.AVG, weak=True)
    assert v.answer is Answer.YES
    v = k_disjoint(inter_carrier, other, MeanKind.LIS, weak=True)
    assert v.answer is Answer.NO


def test_iso_growth_profiles():
    d, ratios = iso_growth(bset(Finite((Q(1), Q(2)))))
    assert d == 0 and ratios == (2,)
    d, ratios = iso_growth(bset(seq(0), seq(1, r=Q(1, 3))))
    assert d == 1 and ratios == (Q(1, 3), Q(1, 2))
    d, ratios = iso_growth(bset(Tower(2, Q(0), Q(1), Q(1, 4)), seq(5)))
    assert d == 2 and ratios == (Q(1, 4),)
    assert iso_coeff_compare((Q(1, 2),), (Q(1, 2),), 1) == 0
    assert iso_coeff_compare((Q(1, 2),), (Q(1, 3),), 1) == 1  # 1/log2 > 1/log3


def test_witness_big_trend():
    h2 = bset(seq(0))
    witness, stages = build_iso_witness_staged(h2, "big", 6)
    ratios = [r for _, r in witness_stage_ratios(witness, h2, stages)]
    assert len(ratios) >= 3
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


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


def test_witness_domain_violations():
    with pytest.raises(DomainViolation):
        build_iso_witness(bset(Finite((Q(1), Q(2)))), "big", 3)
    with pytest.raises(DomainViolation):
        build_iso_witness(bset(Interval(Q(0), Q(1))), "big", 3)


@pytest.mark.parametrize("kind", ["lis", "avg"])
def test_classify_command_evaluates_each_mean_once(monkeypatch, kind):
    import collections

    from setmeans import classify, means
    from setmeans.cli import run_command

    calls = collections.Counter()
    real = means.mean_of

    def counted(h, *args, **kwargs):
        calls[h] += 1
        return real(h, *args, **kwargs)

    monkeypatch.setattr(means, "mean_of", counted)
    monkeypatch.setattr(classify, "mean_of", counted)
    code, rep = run_command(["classify", "--mean", kind, "--of",
                             "seq(0,1,1/2) U [3,4]", "seq(5,1,1/3) U [7,9]"])
    assert code == 0
    assert all(v is not None for v in rep["result"]["bundle"].values())
    # the domain check of H and of V, nothing else
    assert len(calls) == 2
    assert set(calls.values()) == {1}
