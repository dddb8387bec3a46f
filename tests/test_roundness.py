"""Roundness: both routes against the exact defect, and under scaling and reflection."""

import collections
import dataclasses
import random
from fractions import Fraction as Q

import pytest

from setmeans import (
    Answer,
    DomainViolation,
    Finite,
    GeomSeq,
    Interval,
    MeanKind,
    MeanValue,
    SetMeansError,
    Tower,
    cut_set,
    equal_weight,
    gen_corpus,
    mean_of,
    normalize,
    normalize_blocks,
    parse,
    reflect_set,
    round_defect,
    round_witness,
)
from setmeans.blocks import Cantor
from setmeans.laws import PROFILES
from setmeans.roundness import round_pass


def bset(*blocks):
    return normalize_blocks(list(blocks))


def seq(a, w=Q(1), r=Q(1, 2)):
    return GeomSeq(Q(a), Q(w), Q(r))


def test_round_arith_symmetric():
    rep = round_defect(bset(Finite((Q(0), Q(1), Q(2), Q(3)))), MeanKind.ARITH)
    assert rep.verdict.answer is Answer.YES
    assert rep.defect.value == 0
    assert rep.witness == {"split": [2, 2]}
    wit = round_witness(bset(Finite((Q(0), Q(1), Q(2), Q(3)))), MeanKind.ARITH)
    assert wit.answer is Answer.YES


def test_round_avg_counterexample():
    h = bset(Interval(Q(0), Q(2)), Interval(Q(4), Q(5)))
    rep = round_defect(h, MeanKind.AVG)
    assert rep.k.value == Q(13, 6)
    assert rep.k1.value == 1
    assert rep.k2.value == Q(9, 2)
    assert rep.defect.value == Q(7, 12)
    assert rep.verdict.answer is Answer.NO
    wit = round_witness(h, MeanKind.AVG)
    assert wit.answer is Answer.NO


def test_round_lis_four_sequences():
    h = bset(seq(0), seq(1), seq(2), seq(3))
    rep = round_defect(h, MeanKind.LIS)
    assert rep.verdict.answer is Answer.YES
    assert round_witness(h, MeanKind.LIS).answer is Answer.YES


def test_round_witness_lis_with_a_finite_half_raises():
    # the halves split at the mean 0: the low half is the point -5 alone
    h = normalize(parse("seq(0,1,1/2) U {-5}"))
    with pytest.raises(DomainViolation, match="^a half is finite, outside Dom\\(lis\\)$"):
        round_witness(h, MeanKind.LIS)


def test_round_iso_two_sequences():
    h = bset(seq(0), seq(1))
    wit = round_witness(h, MeanKind.ISO)
    assert wit.answer is Answer.YES
    rep = round_defect(h, MeanKind.ISO)
    assert rep.verdict.answer is Answer.YES


def test_round_iso_unbalanced():
    h = bset(seq(0), seq(1), seq(2))  # k near 1; two anchors above, one below
    wit = round_witness(h, MeanKind.ISO)
    rep = round_defect(h, MeanKind.ISO)
    if rep.verdict.answer is not Answer.INCONCLUSIVE:
        assert rep.verdict.answer == wit.answer


def test_round_requires_domain():
    with pytest.raises(DomainViolation):
        round_defect(bset(seq(0)), MeanKind.ARITH)


def _finite_corpus(seed, count, size=12, denmax=16, span=100):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, size)
        pts = set()
        while len(pts) < n:
            den = rng.randint(1, denmax)
            pts.add(Q(rng.randint(0, span * den), den))
        out.append(bset(Finite(tuple(pts))))
    return out


def _round_iff_zero_defect(h, kind):
    """Both routes' answer, asserted YES exactly when the exact defect is 0;
    None, with nothing asserted, when the defect is approximate."""
    rep, wit = round_defect(h, kind), round_witness(h, kind)
    if not rep.defect.is_exact:
        return None
    want = Answer.YES if rep.defect.value == 0 else Answer.NO
    assert (rep.verdict.answer, wit.answer) == (want, want), h
    return want


def test_equivalence_arith_on_random_finite_sets():
    answers = {_round_iff_zero_defect(h, MeanKind.ARITH) for h in _finite_corpus(97, 300)}
    assert answers == {Answer.YES, Answer.NO}


def test_equivalence_avg_on_interval_unions():
    rng = random.Random(11)
    answers = set()
    for _ in range(200):
        blocks = []
        cursor = Q(rng.randint(-40, 0))
        for _ in range(rng.randint(1, 4)):
            gap = Q(rng.randint(1, 9), rng.randint(1, 4))
            length = Q(rng.randint(1, 12), rng.randint(1, 4))
            blocks.append(Interval(cursor + gap, cursor + gap + length))
            cursor = cursor + gap + length
        answers.add(_round_iff_zero_defect(bset(*blocks), MeanKind.AVG))
    assert answers == {Answer.YES, Answer.NO}


def test_equivalence_acc_on_tower_unions():
    rng = random.Random(13)
    answers = []
    for _ in range(120):
        blocks = []
        cursor = Q(rng.randint(-30, 0))
        for _ in range(rng.randint(1, 3)):
            cursor += Q(rng.randint(2, 8))
            r = Q(1, rng.choice([4, 5, 6]))
            blocks.append(Tower(2, cursor, Q(rng.choice([1, -1])), r))
        h = bset(*blocks)
        try:
            answers.append(_round_iff_zero_defect(h, MeanKind.ACC))
        except DomainViolation:
            # a half left the domain; the witness route must agree by raising
            with pytest.raises(DomainViolation):
                round_witness(h, MeanKind.ACC)
    assert len(answers) > 60 and set(answers) == {Answer.YES, Answer.NO}


def test_equivalence_lis_on_sequence_unions():
    rng = random.Random(17)
    answers = set()
    for _ in range(200):
        blocks = []
        cursor = Q(rng.randint(-30, 0))
        for _ in range(rng.randint(2, 4)):
            cursor += Q(rng.randint(1, 7))
            blocks.append(GeomSeq(cursor, Q(rng.choice([1, -1])),
                                  Q(1, rng.choice([2, 3, 4]))))
        try:
            answers.add(_round_iff_zero_defect(bset(*blocks), MeanKind.LIS))
        except DomainViolation:
            continue  # the mean cut leaves one side finite
    assert answers == {Answer.YES, Answer.NO}


def test_equivalence_iso_on_sequence_unions():
    # sequences of one ratio make one commensurable class: every mean is exact
    rng = random.Random(19)
    answers = []
    for _ in range(50):
        blocks = []
        cursor = Q(rng.randint(-20, 0))
        r = Q(1, rng.choice([2, 3]))
        for _ in range(rng.randint(2, 4)):
            cursor += Q(rng.randint(1, 6))
            blocks.append(GeomSeq(cursor, Q(1), r))
        answers.append(_round_iff_zero_defect(bset(*blocks), MeanKind.ISO))
    assert set(answers) == {Answer.YES, Answer.NO}


def scale_set(h, c):
    """c*H for a rational c > 0: Finite, Interval and Cantor blocks scale
    their ends, and a sum-of-powers block its anchor and scale."""
    def scaled(b):
        if isinstance(b, Finite):
            return Finite(tuple(c * p for p in b.points))
        if isinstance(b, (Interval, Cantor)):
            return dataclasses.replace(b, lo=c * b.lo, hi=c * b.hi)
        return dataclasses.replace(b, anchor=c * b.anchor, scale=c * b.scale)

    return normalize_blocks(scaled(b) for b in h.blocks)


def _round_outcome(h, kind):
    """Both routes' answers, or the class of the error raised."""
    try:
        rep, wit = round_pass(h, kind)
    except SetMeansError as exc:
        return type(exc)
    return rep.verdict.answer, wit.answer


def test_roundness_is_invariant_under_scaling_and_reflection():
    # roundness compares the halves by their weights, which no dilation or
    # reflection changes; a defect compared with 0 within 2*tol changed
    # under x -> x/10**9
    maps = [lambda h, c=c: scale_set(h, c) for c in (Q(1, 10**9), Q(7, 3), Q(10**9))]
    maps.append(lambda h: reflect_set(h, Q(3, 2)))
    answers = set()
    for seed in (1, 2, 3):
        for profile in PROFILES:
            for e in gen_corpus(seed, 40, profile):
                h = normalize(e)
                for kind in MeanKind:
                    want = _round_outcome(h, kind)
                    for f in maps:
                        assert _round_outcome(f(h), kind) == want, (e, kind)
                    answers.add(want)
    assert {(Answer.YES, Answer.YES), (Answer.NO, Answer.NO)} <= answers


def test_arith_verdict_invariant_under_removing_k():
    for h in _finite_corpus(41, 150):
        pts = h.finite_points()
        k = sum(pts, Q(0)) / len(pts)
        if k not in pts or len(pts) == 1:
            continue
        rep = round_defect(h, MeanKind.ARITH)
        reduced = bset(Finite(tuple(p for p in pts if p != k)))
        rep2 = round_defect(reduced, MeanKind.ARITH)
        assert rep.verdict.answer == rep2.verdict.answer


def test_defect_negates_under_reflection():
    from setmeans import CutNotRepresentable

    checked = 0
    for e in gen_corpus(83, 60, "mixed"):
        h = normalize(e)
        for kind in (MeanKind.ARITH, MeanKind.AVG, MeanKind.ACC, MeanKind.LIS):
            try:
                rep = round_defect(h, kind)
                mirrored = reflect_set(h, Q(3, 2))
                rep2 = round_defect(mirrored, kind)
            except (DomainViolation, CutNotRepresentable):
                continue
            assert rep2.defect.value == -rep.defect.value
            checked += 1
    assert checked > 40


def test_round_command_evaluates_each_mean_once(monkeypatch):
    import collections

    from setmeans import means, roundness
    from setmeans.cli import run_command

    calls = collections.Counter()
    real = means.mean_iso

    def counted(h, *args, **kwargs):
        calls[h] += 1
        return real(h, *args, **kwargs)

    monkeypatch.setattr(means, "mean_iso", counted)
    monkeypatch.setattr(roundness, "mean_iso", counted, raising=False)
    code, rep = run_command(["round", "--mean", "iso", "seq(0,1,1/2) U seq(1,1,1/2)"])
    assert code == 0
    assert rep["result"]["verdict"]["answer"] == "YES"
    # the set and its two halves, one evaluation each
    assert len(calls) == 3
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("expr, measures", [
    ("cantor(0,1,2,1/3) U cantor(5,6,2,1/3)", ["1^(log 2/log 3)", "1^(log 2/log 3)"]),
    # weights 1, 1/2 and 1 put k = 17/6 in the gap before the third block
    ("cantor(0,1,2,1/3) U cantor(2,7/3,2,1/3) U cantor(5,6,2,1/3)",
     ["1^(log 2/log 3) + (1/3)^(log 2/log 3)", "1^(log 2/log 3)"]),
    ("cantor(0,1,2,2/5)", ["(2/5)^(log 2/log (5/2))", "(2/5)^(log 2/log (5/2))"]),
    ("[0,1] U [2,4]", ["7/6", "11/6"]),
])
def test_round_avg_payload_writes_the_measures_out(expr, measures):
    from setmeans.cli import run_command

    code, rep = run_command(["round", "--mean", "avg", expr])
    assert code == 0
    assert rep["result"]["witness"] == {"measures": measures}


@pytest.mark.parametrize("kind", ["arith", "acc", "avg"])
def test_witness_is_equal_weight_of_the_halves(kind):
    # the witness route compares the halves at k exactly as equal_weight does,
    # unless both half means are exactly k: the defect is then 0, whatever
    # the halves weigh (at seed 7 one acc set has halves of unequal weight there)
    answers, at_k = set(), set()
    for profile in ("finite", "sequences", "towers", "intervals", "cantor", "mixed"):
        for e in gen_corpus(7, 30, profile):
            h = normalize(e)
            k = mean_of(h, kind)
            if not k.is_defined:
                continue
            try:
                wit = round_witness(h, kind)
            except SetMeansError:
                continue
            kq = k.value if k.is_exact else Q(k.approx)
            low, high = cut_set(h, kq, keep_low=True), cut_set(h, kq, keep_low=False)
            weighed = equal_weight(low, high, kind, "equality").answer
            if all(m == MeanValue.exact(kq) for m in (mean_of(low, kind), mean_of(high, kind))):
                assert wit.answer is Answer.YES, e
                at_k.add(weighed)
            else:
                assert wit.answer is weighed, e
            answers.add(wit.answer)
    assert answers == {Answer.YES, Answer.NO}
    assert at_k == ({Answer.YES, Answer.NO} if kind == "acc" else {Answer.YES})


def test_iso_witness_answers_from_the_half_means():
    # both halves at k = 0 have ISO mean 0, so the witness answers YES at once;
    # the halves' growth coefficients 1/ln 2 and 1/ln 3 differ, so equal
    # weight alone would answer NO
    h = normalize(parse("seq(0,1,1/2) U seq(0,-1,1/3)"))
    rep, wit = round_pass(h, MeanKind.ISO)
    assert rep.verdict.answer is Answer.YES
    assert (wit.answer, wit.evidence) == (Answer.YES, ("half means 0, 0 vs k=0",))
    low, high = cut_set(h, Q(0), keep_low=True), cut_set(h, Q(0), keep_low=False)
    assert equal_weight(low, high, "iso", "bound").answer is Answer.NO


@pytest.mark.parametrize("kind", ["arith", "acc", "avg", "iso"])
def test_round_decision_is_the_weigh_verdict_of_the_halves(kind):
    # unless both half means are exactly equal, round decides as weigh does
    # on the pair (H-, H+): the same answer and the same evidence
    answers = collections.Counter()
    for profile in PROFILES:
        for e in gen_corpus(7, 30, profile):
            h = normalize(e)
            try:
                wit = round_witness(h, kind)
            except SetMeansError:
                continue
            k = mean_of(h, kind)
            kq = k.value if k.is_exact else Q(k.approx)
            low, high = cut_set(h, kq, keep_low=True), cut_set(h, kq, keep_low=False)
            k1, k2 = mean_of(low, kind), mean_of(high, kind)
            if k1.is_exact and k2.is_exact and k1.value == k2.value:
                continue
            want = equal_weight(low, high, kind, "bound")
            assert (wit.answer, wit.evidence) == (want.answer, want.evidence), e
            answers[wit.answer] += 1
    assert answers[Answer.YES] > 10 and answers[Answer.NO] > 10
