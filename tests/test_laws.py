"""Corpus generation and the law-checking harness."""

from collections import Counter
from fractions import Fraction as Q

import pytest

from setmeans import (
    Finite,
    GeomSeq,
    LawKind,
    MeanKind,
    ValidationError,
    check_law,
    gen_corpus,
    mean_of,
    normalize,
    parse,
    render,
    union_sets,
)
from setmeans import laws
from setmeans.laws import replay_violation
from setmeans.means import MeanValue
from setmeans.sets import Leaf, Union


def test_corpus_determinism():
    a = [render(e) for e in gen_corpus(42, 3, "finite")]
    b = [render(e) for e in gen_corpus(42, 3, "finite")]
    assert a == b
    c = [render(e) for e in gen_corpus(43, 3, "finite")]
    assert a != c


def test_corpus_profiles():
    for e in gen_corpus(42, 10, "finite"):
        assert normalize(e).is_finite
    for e in gen_corpus(7, 5, "towers"):
        from setmeans.sets import level
        assert level(normalize(e)) >= 2
    for e in gen_corpus(1, 100, "mixed"):
        normalize(e)  # must not raise


def test_corpus_validates_count_and_profile():
    with pytest.raises(ValidationError):
        gen_corpus(1, 0, "finite")
    with pytest.raises(ValidationError):
        gen_corpus(1, 5, "nonsense")


def test_shift_invariant_no_violations():
    corpus = gen_corpus(5, 60, "mixed")
    for mean in (MeanKind.ARITH, MeanKind.LIS, MeanKind.ACC, MeanKind.AVG):
        rep = check_law(mean, LawKind.SHIFT_INVARIANT, corpus)
        assert rep.violations == ()
        assert rep.trials > rep.skipped


def test_self_shift_invariant_no_violations():
    corpus = gen_corpus(6, 60, "mixed")
    for mean in (MeanKind.ARITH, MeanKind.LIS, MeanKind.ACC, MeanKind.AVG):
        rep = check_law(mean, LawKind.SELF_SHIFT_INVARIANT, corpus)
        assert rep.violations == ()


def test_monotone_avg_on_intervals():
    corpus = gen_corpus(9, 60, "intervals")
    rep = check_law(MeanKind.AVG, LawKind.MONOTONE, corpus)
    assert rep.violations == ()
    assert rep.trials - rep.skipped > 30


def test_internal_and_strong_internal():
    corpus = gen_corpus(14, 50, "mixed")
    for mean in MeanKind:
        rep = check_law(mean, LawKind.INTERNAL, corpus)
        assert rep.violations == ()
        rep = check_law(mean, LawKind.STRONG_INTERNAL, corpus)
        assert rep.violations == ()


def test_monotone_family_exact_means():
    corpus = gen_corpus(15, 40, "mixed")
    for law in (LawKind.MONOTONE, LawKind.STRONG_MONOTONE, LawKind.DISJOINT_MONOTONE,
                LawKind.UNION_MONOTONE, LawKind.D_MONOTONE):
        for mean in (MeanKind.ARITH, MeanKind.LIS, MeanKind.AVG):
            rep = check_law(mean, law, corpus)
            # these are sampled hypotheses; the harness must stay silent
            # on the means the theory treats as arithmetic-like
            if mean in (MeanKind.ARITH, MeanKind.AVG):
                assert rep.violations == (), (law, mean, rep.violations[:1])


def test_part_shift_invariant_finds_acc_witnesses():
    # moving a lower-level part does not move the accumulation mean at all,
    # so the sign condition fails: these reports are evidence, not errors
    corpus = [
        Union((Leaf(GeomSeq(Q(0), Q(1), Q(1, 2))), Leaf(Finite((Q(9),))))),
        Leaf(Finite((Q(3),))),
        Leaf(GeomSeq(Q(20), Q(1), Q(1, 3))),
    ]
    rep = check_law(MeanKind.ACC, LawKind.PART_SHIFT_INVARIANT, corpus)
    assert rep.violations
    # every recorded violation replays: the inputs re-normalize and the
    # recorded shift reproduces the unchanged union mean
    from setmeans import mean_of, translate_set, union_sets

    v = rep.violations[0]
    h1, h2, x = replay_violation(MeanKind.ACC, v)
    base = mean_of(union_sets(h1, h2), MeanKind.ACC)
    moved = mean_of(union_sets(h1, translate_set(h2, x)), MeanKind.ACC)
    assert base.value == moved.value  # zero difference, sign(0) != sign(x)


def test_part_shift_invariant_arith_clean():
    corpus = gen_corpus(25, 50, "finite")
    rep = check_law(MeanKind.ARITH, LawKind.PART_SHIFT_INVARIANT, corpus)
    assert rep.violations == ()
    assert rep.trials - rep.skipped > 50


def test_lis_disjoint_monotone_search():
    # a witness search over crafted pairs: the midpoint of the union's
    # accumulation bounds always lands between the two midpoints, so the
    # search comes back empty -- negative evidence, recorded as such
    corpus = [
        Leaf(GeomSeq(Q(0), Q(1), Q(1, 2))),
        Union((Leaf(GeomSeq(Q(-10), Q(1), Q(1, 2))), Leaf(GeomSeq(Q(10), Q(1), Q(1, 2))))),
        Union((Leaf(GeomSeq(Q(-2), Q(1), Q(1, 3))), Leaf(GeomSeq(Q(1), Q(1), Q(1, 3))))),
        Leaf(GeomSeq(Q(4), Q(-1), Q(1, 4))),
    ]
    rep = check_law(MeanKind.LIS, LawKind.DISJOINT_MONOTONE, corpus)
    assert rep.violations == ()
    assert rep.trials - rep.skipped >= 2


def test_check_law_is_deterministic():
    corpus = gen_corpus(33, 40, "mixed")
    a = check_law(MeanKind.AVG, LawKind.MONOTONE, corpus)
    b = check_law(MeanKind.AVG, LawKind.MONOTONE, corpus)
    assert a == b


def test_check_law_on_kept_blocks_matches_fresh_expressions():
    # gen_corpus has normalised its expressions and they keep their blocks;
    # parsed again, they are fresh objects that were never normalised
    corpus = gen_corpus(41, 30, "mixed")
    for mean in MeanKind:
        for law in LawKind:
            fresh = [parse(render(e)) for e in corpus]
            assert check_law(mean, law, corpus) == check_law(mean, law, fresh), (mean, law)


@pytest.mark.parametrize("kab, violated", [(MeanValue.exact(1), True),
                                           (MeanValue.approximate(1.0, 1e-9), False)])
def test_union_monotone_trusts_a_strict_step_only_between_exact_values(monkeypatch, kab,
                                                                       violated):
    # K(A) < K(A u B) and K(A) = K(A u C), yet K(A u B u C) = K(A): the strict
    # step is lost, a violation only when K(A u B) is exact
    values = {(0,): MeanValue.exact(0), (0, 10): kab, (0, 20): MeanValue.exact(0),
              (0, 10, 20): MeanValue.exact(0)}

    def mean_of(h, kind, cfg):
        return values.get(tuple(h.finite_points()), MeanValue.undefined("not in the table"))

    monkeypatch.setattr(laws, "mean_of", mean_of)
    corpus = [Leaf(Finite((Q(x),))) for x in (0, 10, 20)]
    rep = check_law(MeanKind.ARITH, LawKind.UNION_MONOTONE, corpus)
    assert (rep.trials, rep.skipped) == (3, 2)
    assert [v.inputs for v in rep.violations] == ([("{0}", "{10}", "{20}")] if violated else [])


def test_a_skipped_trial_builds_nothing(monkeypatch):
    # every arith mean of an infinite set is undefined, so LAW_TABLE has every
    # trial of this corpus skipped: hypotheses are read before any translate or
    # union is built, except part-shift-invariant's, which is K(H1 u H2) itself
    built = Counter()

    def counted(name, f):
        def g(*args):
            built[name] += 1
            return f(*args)
        return g

    def disjoint(h1, h2, _disjoint=laws._disjoint):
        out = _disjoint(h1, h2)
        built["disjoint pair"] += out is True
        return out

    monkeypatch.setattr(laws, "union_sets", counted("union", laws.union_sets))
    monkeypatch.setattr(laws, "translate_set", counted("translate", laws.translate_set))
    monkeypatch.setattr(laws, "_disjoint", disjoint)
    corpus = gen_corpus(4, 30, "sequences")
    for law in LawKind:
        built.clear()
        rep = check_law(MeanKind.ARITH, law, corpus)
        assert rep.skipped == rep.trials, law
        assert built["translate"] == 0, law
        if law is LawKind.PART_SHIFT_INVARIANT:
            assert built["union"] == built["disjoint pair"] > 0
        else:
            assert built["union"] == 0, law


# (trials, skipped, violations) of each law, in LawKind order, for each
# (profile, mean): how mean values compare decides every entry
LAW_TABLE = {
    ("mixed", "arith"): [
        (30, 27, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0),
        (30, 30, 0), (30, 30, 0), (39, 27, 0), (36, 27, 0), (30, 30, 0),
    ],
    ("mixed", "lis"): [
        (30, 3, 0), (30, 3, 0), (30, 6, 0), (30, 6, 0), (30, 16, 0),
        (30, 13, 0), (78, 56, 0), (111, 3, 0), (84, 3, 0), (87, 16, 10),
    ],
    ("mixed", "acc"): [
        (30, 16, 0), (30, 19, 0), (30, 24, 0), (30, 27, 0), (30, 24, 0),
        (30, 26, 0), (48, 43, 0), (72, 16, 0), (58, 16, 0), (48, 24, 12),
    ],
    ("mixed", "iso"): [
        (30, 16, 0), (30, 19, 0), (30, 24, 0), (30, 27, 0), (30, 24, 0),
        (30, 26, 0), (48, 43, 0), (72, 16, 0), (58, 16, 0), (48, 28, 8),
    ],
    ("mixed", "avg"): [
        (30, 11, 0), (30, 14, 0), (30, 19, 0), (30, 22, 0), (30, 24, 0),
        (30, 19, 0), (57, 51, 0), (87, 11, 0), (68, 11, 0), (69, 22, 19),
    ],
    ("sequences", "arith"): [
        (30, 30, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0),
        (30, 30, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0),
    ],
    ("sequences", "lis"): [
        (30, 0, 0), (30, 0, 0), (30, 0, 0), (30, 0, 0), (30, 3, 0),
        (30, 12, 0), (111, 52, 0), (120, 0, 0), (90, 0, 0), (111, 3, 0),
    ],
    ("sequences", "acc"): [
        (30, 0, 0), (30, 0, 0), (30, 0, 0), (30, 0, 0), (30, 3, 0),
        (30, 14, 0), (111, 52, 0), (120, 0, 0), (90, 0, 0), (111, 3, 0),
    ],
    ("sequences", "iso"): [
        (30, 0, 0), (30, 0, 0), (30, 0, 0), (30, 0, 0), (30, 3, 0),
        (30, 14, 0), (111, 95, 0), (120, 0, 0), (90, 0, 0), (111, 3, 0),
    ],
    ("sequences", "avg"): [
        (30, 30, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0),
        (30, 30, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0), (30, 30, 0),
    ],
}


@pytest.mark.parametrize("seed, profile", [(3, "mixed"), (4, "sequences")])
def test_law_table(seed, profile):
    corpus = gen_corpus(seed, 30, profile)
    for mean in MeanKind:
        reports = [check_law(mean, law, corpus) for law in LawKind]
        assert [(r.trials, r.skipped, len(r.violations)) for r in reports] \
            == LAW_TABLE[profile, mean.value], mean
