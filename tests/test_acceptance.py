"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import json
import random
import time
from fractions import Fraction as Q

from setmeans import (
    Answer,
    DomainViolation,
    Finite,
    GeomSeq,
    Interval,
    LawKind,
    MeanKind,
    Trend,
    WeightKind,
    arith_mean,
    bounds,
    build_iso_witness_staged,
    check_law,
    defect_curve,
    equal_weight,
    gen_corpus,
    is_big_for,
    is_small_for,
    mean_of,
    normalize,
    normalize_blocks,
    parse,
    render,
    round_defect,
    round_witness,
    witness_stage_ratios,
)
from setmeans.cli import run_command
from setmeans.means import weight_of


def bset(*blocks):
    return normalize_blocks(list(blocks))


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_exact_reference_value():
    run_command(["eval", "--mean", "avg", "[0,2] U [4,5]"])  # warm the import path
    t0 = time.perf_counter()
    code, rep = run_command(["eval", "--mean", "avg", "[0,2] U [4,5]"])
    elapsed_eval = time.perf_counter() - t0
    assert code == 0
    assert rep["result"]["value"] == {"num": "13", "den": "6"}

    t0 = time.perf_counter()
    code, rep = run_command(["round", "--mean", "avg", "[0,2] U [4,5]"])
    elapsed_round = time.perf_counter() - t0
    assert code == 0
    result = rep["result"]
    assert result["k1"]["value"] == {"num": "1", "den": "1"}
    assert result["k2"]["value"] == {"num": "9", "den": "2"}
    assert result["verdict"]["answer"] == "NO"
    assert elapsed_eval < 0.010 and elapsed_round < 0.010, (elapsed_eval, elapsed_round)

    # cuts at a cycling Cantor orbit give up at the cycle (best of 3)
    cantor = {
        "round lis": (["round", "--mean", "lis", "cantor(5,7,3,1/5)"], 3),
        "kbounds avg": (["kbounds", "--mean", "avg", "cantor(0,1,3,1/4)"], 0),
    }
    best = {}
    for name, (cmd, want_code) in cantor.items():
        best[name] = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            code, rep = run_command(cmd)
            best[name] = min(best[name], time.perf_counter() - t0)
        assert code == want_code, rep
    assert all(t < 0.010 for t in best.values()), best
    _report(1, f"avg = 13/6 exactly, not round; {elapsed_eval*1000:.1f} ms "
               f"+ {elapsed_round*1000:.1f} ms; "
               + ", ".join(f"{name} on a cantor set {t*1000:.1f} ms" for name, t in best.items()))


def test_criterion_2_multiset_identity():
    h1 = [Q(1), Q(2)]
    h2 = [Q(1, 2), Q(1), Q(3)]
    combined = arith_mean(h1 + h2)
    assert combined == Q(3, 2)
    assert combined == (arith_mean(h1) + arith_mean(h2)) / 2
    _report(2, "multiset mean of {1,2} |+| {1/2,1,3} is exactly 3/2")


def test_criterion_3_iso_convergence():
    slowest = 0.0
    for a in (Q(0), Q(1), Q(-3, 2)):
        for r in (Q(1, 2), Q(1, 3), Q(1, 5)):
            h = bset(GeomSeq(a, Q(1), r))
            t0 = time.perf_counter()
            v = mean_of(h, MeanKind.ISO)
            dt = time.perf_counter() - t0
            assert (v.status, v.value) == ("exact", a), (a, r, v)
            assert dt < 1.0, (a, r, dt)
            slowest = max(slowest, dt)
    _report(3, f"iso mean equals the anchor exactly on 9 sequences "
               f"(slowest {slowest*1000:.1f} ms)")


def _finite_sets(seed, count, max_size=12, max_den=16, span=100):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_size)
        pts = set()
        while len(pts) < n:
            den = rng.randint(1, max_den)
            pts.add(Q(rng.randint(0, span * den), den))
        out.append(bset(Finite(tuple(sorted(pts)))))
    return out


def _round_iff_zero_defect(h, kind):
    """Both routes answer YES exactly when the exact defect is 0."""
    rep, wit = round_defect(h, kind), round_witness(h, kind)
    assert rep.defect.is_exact, h
    want = Answer.YES if rep.defect.value == 0 else Answer.NO
    assert (rep.verdict.answer, wit.answer) == (want, want), h
    return want


def test_criterion_4_round_oracle_arith():
    answers = [_round_iff_zero_defect(h, MeanKind.ARITH) for h in _finite_sets(2024, 1000)]
    assert len(answers) == 1000 and set(answers) == {Answer.YES, Answer.NO}
    _report(4, "arith round verdict and cardinality split are YES iff the exact defect is 0 "
               "on 1000/1000 sets")


def _interval_unions(seed, count, max_parts=4):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        blocks = []
        cursor = Q(rng.randint(-50, 0))
        for _ in range(rng.randint(1, max_parts)):
            gap = Q(rng.randint(1, 10), rng.randint(1, 4))
            length = Q(rng.randint(1, 15), rng.randint(1, 4))
            blocks.append(Interval(cursor + gap, cursor + gap + length))
            cursor = cursor + gap + length
        out.append(bset(*blocks))
    return out


def test_criterion_5_round_oracle_avg():
    answers = [_round_iff_zero_defect(h, MeanKind.AVG) for h in _interval_unions(512, 500)]
    assert len(answers) == 500 and set(answers) == {Answer.YES, Answer.NO}
    _report(5, "avg round verdict and measure split are YES iff the exact defect is 0 "
               "on 500/500 interval unions")


def test_criterion_6_duality():
    corpus = [normalize(e) for e in gen_corpus(606, 400, "mixed")]
    pairs = [(corpus[i], corpus[i + 200]) for i in range(200)]
    disagreements = 0
    checked = 0
    pairs_covered = set()
    for idx, (v, h) in enumerate(pairs):
        for kind in (MeanKind.ACC, MeanKind.LIS, MeanKind.AVG):
            try:
                small = is_small_for(v, h, kind)
                big = is_big_for(h, v, kind)
            except DomainViolation:
                continue
            checked += 1
            pairs_covered.add(idx)
            if small.answer != big.answer:
                disagreements += 1
    assert disagreements == 0
    assert checked >= 250 and len(pairs_covered) >= 150
    _report(6, f"duality held on {checked} small/big pairings across "
               f"{len(pairs_covered)} pairs with 0 disagreements")


def test_criterion_7_equal_weight_characterizations():
    # finite pairs: the defect curve's trend against the cardinality rule
    finites = _finite_sets(77, 1000, max_size=8, span=40)
    decided = matched = 0
    for i in range(500):
        h1, h2 = finites[i], finites[i + 500]
        curve = defect_curve(h1, h2, MeanKind.ARITH)
        if curve.trend is Trend.INCONCLUSIVE:
            continue
        decided += 1
        predicted_growth = len(h1.finite_points()) != len(h2.finite_points())
        assert (curve.trend is Trend.LINEAR_GROWTH) == predicted_growth, (h1, h2)
        matched += 1
    assert decided == matched
    assert decided >= 490

    ivs = _interval_unions(88, 400)
    for i in range(200):
        h1, h2 = ivs[i], ivs[i + 200]
        verdict = equal_weight(h1, h2, MeanKind.AVG, WeightKind.IN_BOUND)
        w1 = weight_of(h1, MeanKind.AVG).total
        w2 = weight_of(h2, MeanKind.AVG).total
        assert (verdict.answer is Answer.YES) == (w1 == w2)

    rng = random.Random(99)
    seq_unions = []
    for _ in range(400):
        blocks = []
        cursor = Q(rng.randint(-20, 0))
        for _ in range(rng.randint(2, 4)):
            cursor += Q(rng.randint(1, 8))
            blocks.append(GeomSeq(cursor, Q(rng.choice([1, -1])),
                                  Q(1, rng.choice([2, 3, 4]))))
        seq_unions.append(bset(*blocks))
    for i in range(200):
        h1, h2 = seq_unions[i], seq_unions[i + 200]
        verdict = equal_weight(h1, h2, MeanKind.LIS, WeightKind.IN_LIMIT)
        b1, b2 = bounds(h1), bounds(h2)
        diam_equal = (b1.acc_sup - b1.acc_inf) == (b2.acc_sup - b2.acc_inf)
        assert (verdict.answer is Answer.YES) == diam_equal
    _report(7, f"equal-weight characterizations matched on {decided} finite, "
               "200 interval, and 200 sequence pairs")


def test_criterion_8_laws_suite():
    mixed = gen_corpus(808, 500, "mixed")
    for mean in (MeanKind.ARITH, MeanKind.LIS, MeanKind.ACC, MeanKind.AVG, MeanKind.ISO):
        rep = check_law(mean, LawKind.SHIFT_INVARIANT, mixed)
        assert rep.violations == (), (mean, rep.violations[:1])
        rep = check_law(mean, LawKind.SELF_SHIFT_INVARIANT, mixed)
        assert rep.violations == (), (mean, rep.violations[:1])
    intervals = gen_corpus(809, 500, "intervals")
    rep = check_law(MeanKind.AVG, LawKind.MONOTONE, intervals)
    assert rep.violations == ()
    assert rep.trials - rep.skipped > 300
    _report(8, "shift and self-shift invariance clean for all five means on 500 "
               "mixed sets; avg monotone clean on 500 interval pairs")


def test_criterion_9_witness_trends():
    h2 = bset(GeomSeq(Q(0), Q(1), Q(1, 2)))
    witness, stages = build_iso_witness_staged(h2, "big", 6)
    ratios = [r for _, r in witness_stage_ratios(witness, h2, stages)]
    assert len(ratios) >= 4
    assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
    witness, stages = build_iso_witness_staged(h2, "small", 6)
    ratios_small = [r for _, r in witness_stage_ratios(witness, h2, stages)]
    assert len(ratios_small) >= 4
    assert all(a > b for a, b in zip(ratios_small, ratios_small[1:])), ratios_small
    _report(9, f"big witness ratios rise {[str(r) for r in ratios]}, small "
               f"witness ratios fall {[str(r) for r in ratios_small]}")


def test_criterion_10_round_trip_and_determinism():
    count = 0
    for profile in ("finite", "sequences", "towers", "intervals", "cantor", "mixed"):
        for e in gen_corpus(1001, 167, profile):
            assert normalize(parse(render(e))) == normalize(e)
            count += 1
            if count >= 1000:
                break
        if count >= 1000:
            break
    assert count == 1000

    argv = ["laws", "--mean", "acc", "--law", "self-shift-invariant",
            "--seed", "77", "--n", "40", "--profile", "towers", "--json"]
    _, rep1 = run_command(argv)
    _, rep2 = run_command(argv)
    text1 = json.dumps(rep1, indent=2)
    text2 = json.dumps(rep2, indent=2)
    assert text1.encode() == text2.encode()
    _report(10, "1000 expressions round-tripped; repeated CLI runs byte-identical")
