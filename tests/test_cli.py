"""CLI commands, exit codes, and JSON report determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

from setmeans import cli
from setmeans.cli import run_command


def test_eval_exact_value():
    code, rep = run_command(["eval", "--mean", "avg", "[0,2] U [4,5]"])
    assert code == 0
    assert rep["result"] == {
        "type": "mean",
        "kind": "avg",
        "status": "exact",
        "value": {"num": "13", "den": "6"},
    }


def test_eval_domain_error_exit_code():
    code, rep = run_command(["eval", "--mean", "acc", "[0,1]"])
    assert code == 3
    assert rep["result"]["status"] == "undefined"
    assert rep["result"]["reason"] == "infinite level"


def test_parse_error_exit_code():
    code, rep = run_command(["eval", "--mean", "arith", "[0 2]"])
    assert code == 2
    assert any("parse error" in d for d in rep["diagnostics"])


def test_a_digit_that_is_not_decimal_is_a_parse_error():
    # "²".isdigit() holds, but int("²") fails: the parser reports it, not a crash
    code, rep = run_command(["eval", "--mean", "arith", "{²}"])
    assert code == 2
    assert rep["diagnostics"] == [
        "parse error: unexpected character '²' at line 1, column 2 (expected expression)"]


def test_validation_error_exit_code():
    code, rep = run_command(["eval", "--mean", "lis", "tower(2, 0, 1/2)"])
    assert code == 2
    assert any("validation error" in d for d in rep["diagnostics"])


def test_round_json_payload():
    code, rep = run_command(["round", "--mean", "avg", "--json", "[0,2] U [4,5]"])
    assert code == 0
    result = rep["result"]
    assert result["defect"] == {"status": "exact", "value": {"num": "7", "den": "12"}}
    assert result["verdict"]["answer"] == "NO"
    assert result["k1"]["value"] == {"num": "1", "den": "1"}
    assert result["k2"]["value"] == {"num": "9", "den": "2"}


def test_classify_bundle():
    code, rep = run_command(
        ["classify", "--mean", "lis", "--of", "seq(0,1,1/2)", "{7}"]
    )
    assert code == 0
    bundle = rep["result"]["bundle"]
    assert bundle["small"]["answer"] == "YES"
    assert bundle["big"]["answer"] == "NO"
    # comparability needs both sets in the domain; a finite set is not
    assert bundle["comparable"] is None
    code, rep = run_command(
        ["classify", "--mean", "acc", "--of", "tower(2,0,1/4)", "seq(0,1,1/2)"]
    )
    bundle = rep["result"]["bundle"]
    assert bundle["small"]["answer"] == "YES"
    assert bundle["big"]["answer"] == "NO"
    assert bundle["comparable"]["answer"] == "NO"


def test_disjoint_command():
    code, rep = run_command(["disjoint", "--mean", "lis", "{1,2}", "{1/2, 1, 3}"])
    assert code == 0
    assert rep["result"]["answer"] == "YES"
    code, rep = run_command(
        ["disjoint", "--mean", "avg", "[0,2]", "[1,3]"]
    )
    assert rep["result"]["answer"] == "NO"


def test_weigh_command():
    code, rep = run_command(
        ["weigh", "--mean", "arith", "--kind", "bound", "{1,2}", "{3,4,5}"]
    )
    assert code == 0
    assert rep["result"]["answer"] == "NO"
    assert rep["result"]["curve"]["trend"] == "LINEAR_GROWTH"


def test_kbounds_command():
    code, rep = run_command(["kbounds", "--mean", "arith", "{0, 10}"])
    assert code == 0
    assert rep["result"]["k_liminf"]["value"] == {"num": "0", "den": "1"}
    assert rep["result"]["k_limsup"]["value"] == {"num": "10", "den": "1"}


def test_witness_command():
    code, rep = run_command(
        ["witness", "--iso-big", "--depth", "4", "seq(0,1,1/2)"]
    )
    assert code == 0
    assert rep["result"]["expr"].startswith("{")
    assert len(rep["result"]["ratios"]) >= 3


@pytest.mark.parametrize("argv", [
    ["witness", "--iso-small", "--depth", "64", "seq(0,1,1/2)"],
    ["witness", "--iso-small", "--depth", "128", "seq(0,1,1/2)"],
    ["witness", "--iso-big", "--depth", "256", "seq(0,1,1/2)"],
])
def test_deep_witnesses_end_with_a_report(argv):
    # each answers, or exits 2 past the depth bound; none raises (no timing
    # is asserted: the machine may be shared)
    code, rep = run_command(argv + ["--json"])
    assert code in (0, 2)
    json.dumps(rep)
    if code == 2:
        assert " is past " in rep["diagnostics"][0]
        assert "the largest depth within it is" in rep["diagnostics"][0]


def test_witness_depth_bounds_name_the_bound():
    code, rep = run_command(["witness", "--iso-small", "--depth", "128", "seq(0,1,1/2)"])
    assert code == 2
    assert "int-to-text limit of 4300 digits at stage" in rep["diagnostics"][0]
    # the largest depth named answers, and the next one does not
    depth = int(rep["diagnostics"][0].rsplit(" ", 1)[1])
    assert run_command(["witness", "--iso-small", "--depth", str(depth), "seq(0,1,1/2)"])[0] == 0
    assert run_command(["witness", "--iso-small", "--depth", str(depth + 1), "seq(0,1,1/2)"])[0] == 2
    code, rep = run_command(["witness", "--iso-big", "--depth", "256", "seq(0,1,1/2)"])
    assert code == 2
    assert "report budget of 2000000 digits" in rep["diagnostics"][0]


@pytest.mark.parametrize("depth", ["1", "0", "-3", "10000000"])
def test_witness_depth_out_of_range_exits_2(depth):
    code, rep = run_command(["witness", "--iso-small", "--depth", depth, "seq(0,1,1/2)"])
    assert code == 2
    assert rep["diagnostics"][0].startswith("validation error: depth must be at least 2")


def test_witness_with_only_empty_stages_exits_3():
    # every isolated point lies below 1/depth: the first nonempty stage is
    # bisected for, not scanned, so this ends at once
    code, rep = run_command(["witness", "--iso-big", "--depth", "1000000",
                             "seq(0,1/1000000000000,1/2)"])
    assert code == 3
    assert rep["diagnostics"] == [
        "domain error: DomainViolation: no stage produced any points at this depth"]


def test_a_far_operands_curve_is_exact_and_exits_0():
    # the tails read no float, however far the operands lie
    far = "{0," + "1" + "0" * 250 + "}"
    code, rep = run_command(["weigh", "--mean", "arith", "--kind", "bound", far, "{3,4,5}"])
    assert code == 0
    curve = rep["result"]["curve"]
    assert curve["right"]["from"] == {"num": str(10**250 - 3), "den": "1"}
    assert curve["left"]["to"] == {"num": "-5", "den": "1"}
    alpha = (4 - Q(10**250, 2)) / 10
    for tail in (curve["right"], curve["left"]):
        assert tail["beta"] == {"status": "exact", "value": {"num": "1", "den": "10"}}
        assert tail["alpha"] == {"status": "exact", "value": {"num": str(alpha.numerator),
                                                              "den": str(alpha.denominator)}}


def test_laws_command():
    code, rep = run_command(
        ["laws", "--mean", "avg", "--law", "shift-invariant",
         "--seed", "4", "--n", "25", "--profile", "intervals"]
    )
    assert code == 0
    assert rep["result"]["violations"] == []
    assert rep["result"]["trials"] > 0


@pytest.mark.parametrize("n", ["0", "-5"])
def test_laws_with_no_sets_exits_2(n):
    code, rep = run_command(["laws", "--mean", "arith", "--law", "internal", "--n", n])
    assert code == 2
    assert rep["diagnostics"] == ["validation error: count must be at least 1"]


def test_laws_past_the_corpus_bound_exits_2():
    # a count like 10**30 drew sets until memory ran out
    for n in ("10001", str(10**30)):
        code, rep = run_command(["laws", "--mean", "arith", "--law", "internal", "--n", n])
        assert code == 2
        assert rep["diagnostics"] == ["validation error: count must be at most 10000"]


@pytest.mark.parametrize("text, column", [
    ("{" + "1" * 5000 + "}", 2),
    ("{1,\n -" + "1" * 4301 + "}", 2),
    ("seq(0, 1, 1/" + "3" * 4301 + ")", 13),
    ("tower(" + "2" * 4301 + ", 0, 1/4)", 7),
    ("cantor(0, 1, " + "3" * 4301 + ", 1/9)", 14),
])
def test_literal_past_the_digit_limit_is_a_parse_error(text, column):
    code, rep = run_command(["eval", "--mean", "arith", text])
    assert code == 2
    line = 1 + text.count("\n")
    assert rep["diagnostics"] == [
        f"parse error: integer literal longer than 4300 digits at line {line}, column {column} "
        "(expected integer of at most 4300 digits)"]


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("shift(", ", 1)")])
def test_nesting_past_the_bound_exits_2(opener, closer):
    # 1,000 levels raised RecursionError, and the CLI exited 1 with a traceback
    for n in (201, 400, 1000, 5000):
        code, rep = run_command(["eval", "--mean", "arith", opener * n + "{1}" + closer * n])
        assert code == 2
        assert rep["diagnostics"] == [
            f"parse error: nesting deeper than 200 levels at line 1, column {200 * len(opener) + 1} "
            "(expected at most 200 nested terms)"]
    code, rep = run_command(["eval", "--mean", "arith", opener * 200 + "{1}" + closer * 200])
    assert code == 0


def test_literal_at_the_digit_limit_is_read():
    code, rep = run_command(["eval", "--mean", "arith", "{" + "1" * 4300 + "}"])
    assert code == 0
    assert rep["result"]["value"] == {"num": "1" * 4300, "den": "1"}


def test_result_past_the_digit_limit_exits_2():
    # each literal is within the limit, but the mean 2 * (10**4300 - 1) is not
    from setmeans.dsl import fmt_q
    from setmeans.errors import ValidationError

    nines = "9" * 4300
    code, rep = run_command(["eval", "--mean", "arith", f"shift({{{nines}}}, {nines})"])
    assert code == 2
    assert rep["diagnostics"] == [
        "validation error: a result of more than 4300 digits cannot be written"]
    for q in (Q(10**4300), Q(1, 10**4300)):
        with pytest.raises(ValidationError, match="more than 4300 digits"):
            fmt_q(q)


def test_approximate_mean_past_the_float_range_exits_2():
    a = 10**400
    code, rep = run_command(["eval", "--mean", "iso", "--json",
                             f"seq({a},1,1/2) U seq({a + 1},1,1/3)"])
    assert code == 2
    assert rep["diagnostics"][0].startswith(
        "validation error: the mean is outside the float range")
    # the same pair near 0 is approximate and in range
    code, rep = run_command(["eval", "--mean", "iso", "seq(0,1,1/2) U seq(1,1,1/3)"])
    assert code == 0 and rep["result"]["status"] == "approx"


F = 10**400
FAR_ISO = f"seq({F},1,1/2) U seq({F + 1},1,1/3)"
FAR_AVG = f"cantor({F},{F + 1},2,1/4) U cantor({F + 2},{F + 4},2,1/4)"


@pytest.mark.parametrize("kind, expr, hull, v, bundle", [
    pytest.param("iso", FAR_ISO, (F, F + 1), "seq(0,1,1/2)", ("NO", "NO", "YES"), id="iso"),
    pytest.param("avg", FAR_AVG, (F, F + 4), "{0}", ("YES", "NO", "NO"), id="avg"),
])
def test_far_verdicts_answer_where_the_mean_leaves_the_float_range(kind, expr, hull, v, bundle):
    # both sets are in Dom(kind), but their means are enclosures past the
    # float range: eval cannot print them, while kbounds, classify and
    # disjoint answer exactly, from hulls and orders
    code, rep = run_command(["eval", "--mean", kind, expr])
    assert code == 2
    assert rep["diagnostics"] == ["validation error: the mean is outside the float range: "
                                  "its enclosure's midpoint reads inf as a float"]
    code, rep = run_command(["kbounds", "--mean", kind, expr])
    assert code == 0
    assert [rep["result"][end] for end in ("k_liminf", "k_limsup")] == [
        {"status": "exact", "value": {"num": str(x), "den": "1"}} for x in hull]
    code, rep = run_command(["classify", "--mean", kind, "--of", expr, v])
    assert code == 0 and rep["diagnostics"] == []
    assert tuple(rep["result"]["bundle"][name]["answer"]
                 for name in ("small", "big", "comparable")) == bundle
    code, rep = run_command(["disjoint", "--weak", "--mean", kind, expr, expr])
    assert (code, rep["result"]["answer"]) == (0, "NO")


def test_strict_mode_exit_code():
    # an iso evaluation that cannot converge is inconclusive evidence;
    # pick a bundle with an INCONCLUSIVE member via numerically equal dims
    code, rep = run_command(
        ["weigh", "--mean", "iso", "--kind", "bound", "--strict",
         "seq(0,1,1/2)", "seq(5,1,1/3)"]
    )
    # this pair is decisively unequal, so strict mode stays clean
    assert code == 0
    assert rep["result"]["answer"] == "NO"


def test_usage_error():
    code, _ = run_command(["eval", "--mean", "nonsense", "{1}"])
    assert code == 2
    code, _ = run_command(["frobnicate"])
    assert code == 2
    # a curve has no translate grid to size
    code, _ = run_command(["weigh", "--mean", "arith", "--kind", "bound", "--xmax", "4",
                           "{1,2}", "{3,4}"])
    assert code == 2


def test_no_argv_reads_the_process_argv(monkeypatch):
    # a usage error reports the argv it read, as main does
    monkeypatch.setattr(sys, "argv", ["x", "frobnicate"])
    code, rep = run_command(None)
    assert code == 2
    assert rep["command"] == "frobnicate"


def test_a_parenthesised_union_is_one_part():
    code, rep = run_command(["eval", "--mean", "arith", "({1} U {2}) U {3}"])
    assert code == 0
    assert rep["result"]["value"] == {"num": "2", "den": "1"}


def test_tol_flag_reaches_the_evaluator():
    # ratios 1/2 and 1/3 weigh 1/ln 2 and 1/ln 3: an irrational mean, enclosed within tol
    code, rep = run_command(
        ["eval", "--mean", "iso", "--tol", "0.25", "seq(0,1,1/2) U seq(1,1,1/3)"]
    )
    assert code == 0
    assert rep["result"]["status"] == "approx"
    assert rep["result"]["value"]["tol"] == "0.25"
    # the closed form has no ladder to configure
    code, _ = run_command(["eval", "--mean", "iso", "--ladder-steps", "6", "seq(0,1,1/2)"])
    assert code == 2


def test_tol_must_be_positive():
    # an enclosure is narrowed until it is narrower than tol, which needs tol > 0,
    # and an approximate combination is within 2*tol, which must be finite
    for tol in ("0", "-1", "nan", "inf", "1e308"):
        code, rep = run_command(["eval", "--mean", "iso", "--tol", tol,
                                 "seq(0,1,1/2) U seq(1,1,1/3)"])
        assert code == 2, tol
        assert any("tol must be positive" in d for d in rep["diagnostics"])


def test_strict_mode_flags_inconclusive():
    from setmeans import MeanKind, WeightKind, equal_weight, normalize, parse

    # the leading count coefficients 1/ln 2 and 1/ln(1/r), r = 1/2 + 10**-300,
    # differ by about 2**-994: the interval separation tells them apart
    near_half = f"{10**300 // 2 + 1}/{10**300}"
    v = equal_weight(normalize(parse("seq(0,1,1/2)")),
                     normalize(parse(f"seq(9,1,{near_half})")),
                     MeanKind.ISO, WeightKind.IN_BOUND)
    assert (v.answer.value, v.method.value) == ("NO", "CLOSED_FORM")
    # one family of dimension log 2 / log 3 on diameters 1 and 1 + 10**-1300:
    # the weights differ by less than 2**-4096, so the separation spends its budget
    n = 10**1300
    argv = ["weigh", "--mean", "avg", "--kind", "bound",
            "cantor(0,1,2,1/3)", f"cantor(5,{6 * n + 1}/{n},2,1/3)"]
    code, rep = run_command(argv)
    assert code == 0
    assert rep["result"]["answer"] == "INCONCLUSIVE"
    code, rep = run_command(argv + ["--strict"])
    assert code == 4


def test_strict_mode_reads_the_witness_verdict():
    # both routes weigh the same two Cantor blocks as the weigh pair above and
    # spend the separation budget: the round's own verdict is INCONCLUSIVE
    # too, and its float defect reads ~0, marked approximate: the exact defect
    # is not 0, since the half means differ and so do the weights
    n = 10**1300
    argv = ["round", "--mean", "avg", f"cantor(0,1,2,1/3) U cantor(5,{6 * n + 1}/{n},2,1/3)"]
    code, rep = run_command(argv)
    assert code == 0
    assert rep["result"]["verdict"] == {"answer": "INCONCLUSIVE", "method": "SAMPLER",
                                        "evidence": ["defect ~0"]}
    assert rep["result"]["witness_verdict"]["answer"] == "INCONCLUSIVE"
    code, rep = run_command(argv + ["--strict"])
    assert code == 4
    assert rep["diagnostics"][-1] == "strict mode: result is INCONCLUSIVE"


def test_json_reports_are_byte_identical():
    argv = ["laws", "--mean", "lis", "--law", "self-shift-invariant",
            "--seed", "11", "--n", "30", "--profile", "sequences", "--json"]
    _, rep1 = run_command(argv)
    _, rep2 = run_command(argv)
    assert json.dumps(rep1, indent=2) == json.dumps(rep2, indent=2)


def test_json_round_trip_is_byte_identical():
    _, rep = run_command(["round", "--mean", "avg", "--json", "[0,2] U [4,5]"])
    text = json.dumps(rep, indent=2)
    assert json.dumps(json.loads(text), indent=2) == text


def test_report_top_level_keys():
    _, rep = run_command(["eval", "--mean", "arith", "{1,2,3}"])
    assert list(rep.keys()) == ["command", "inputs", "result", "diagnostics", "version"]


def test_main_prints_json(capsys):
    from setmeans.cli import main

    code = main(["eval", "--mean", "arith", "--json", "{1,2,3}"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["result"]["value"] == {"num": "2", "den": "1"}


def test_main_reads_json_from_the_parsed_flag(capsys):
    from setmeans.cli import main

    # argparse reads --js as --json; the text "--json" never appears
    assert main(["eval", "--mean", "arith", "{1, 2}", "--js"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["value"] == {"num": "3", "den": "2"}
    # a usage error has no parsed flags: the text asks for JSON
    assert main(["eval", "--mean", "mode", "--json", "{1}"]) == 2
    assert json.loads(capsys.readouterr().out)["diagnostics"] == ["usage error"]


def test_main_prints_human(capsys):
    from setmeans.cli import main

    code = main(["eval", "--mean", "arith", "{1,2,3}"])
    out = capsys.readouterr().out
    assert code == 0
    assert "arith mean" in out


PART_SHIFT = "K(H1 u H2+x)-K(H1 u H2)=0 vs x="
PART_SHIFT_INPUTS = "['tower(2, 22/3, 1/6, -1)', 'seq(-9/8, 1, 1/5)', 'x="


@pytest.mark.parametrize("argv, code, lines", [
    (["eval", "--mean", "arith", "{1,2}"], 0, ["arith mean = 3/2"]),
    (["eval", "--mean", "iso", "seq(0,1,1/2) U seq(1,1,1/3)"], 0,
     ["iso mean ~ 0.386852807234542 (tol 1e-09)"]),
    (["eval", "--mean", "acc", "[0,1]"], 3,
     ["acc mean undefined: infinite level"]),
    (["classify", "--mean", "lis", "--of", "seq(0,1,1/2)", "{7}"], 0,
     ["small: YES [CLOSED_FORM]", "big: NO [CLOSED_FORM]",
      "comparable: undefined (candidate set is outside Dom(lis))"]),
    (["disjoint", "--mean", "lis", "{1,2}", "{1/2, 1, 3}"], 0,
     ["YES [CLOSED_FORM]", "  globally: V is the intersection, H a least member of Dom(lis)",
      "  order(V)=0 < order(H)=1"]),
    (["weigh", "--mean", "arith", "--kind", "bound", "{1,2}", "{3,4,5}"], 0,
     ["NO [CLOSED_FORM]", "  point counts 2 vs 3: differ"]),
    (["round", "--mean", "avg", "[0,2] U [4,5]"], 0,
     ["round: NO  k=13/6 k1=1 k2=9/2 defect=7/12"]),
    (["round", "--mean", "iso", "seq(0,-1,1/2) U seq(1/1000,1,1/3)"], 0,
     ["round: NO  k=~0.000386852807234542 k1=0 k2=1/1000 defect=~0.000113147192765458"]),
    (["laws", "--mean", "acc", "--law", "part-shift-invariant", "--seed", "3", "--n", "12",
      "--profile", "mixed"], 0,
     ["law part-shift-invariant under acc: 24 trials, 4 violations, 9 skipped"]
     + [f"  violation: {PART_SHIFT_INPUTS}{x}'] -> {PART_SHIFT}{x}"
        for x in ("6/5", "5", "1/3", "-6/5")]),
    (["kbounds", "--mean", "arith", "{0, 10}"], 0, ["k-liminf = 0, k-limsup = 10"]),
    (["witness", "--iso-big", "--depth", "3", "seq(0,1,1/2)"], 0,
     ["witness (big): {-5/6, -2/3, -11/24, -5/12, -3/8, -35/108, -17/54, -11/36, -8/27, "
      "-31/108, -5/18, -29/108, -7/27}", "stage ratios: 2, 5, 13/2"]),
    (["eval", "--mean", "arith", "{1}"], 0, ["arith mean = 1"]),
    # a parse error and a usage error have no result line: each diagnostic
    # is printed once
    (["eval", "--mean", "arith", "{1"], 2,
     ["parse error: unexpected end of input at line 1, column 3 (expected })"]),
    (["eval", "{1}"], 2, ["usage error"]),
])
def test_main_prints_human_lines(capsys, argv, code, lines):
    from setmeans.cli import main

    assert main(argv) == code
    assert capsys.readouterr().out.splitlines() == lines


def test_eval_avg_with_a_huge_cantor_ratio():
    # the exact root test on 3**700 must not go through a float, which overflows
    n = 3**700
    code, rep = run_command(
        ["eval", "--mean", "avg", f"cantor(0,1,4,1/{n}) U cantor(5,6,2,1/3)"]
    )
    assert code == 0
    # dimension log 2 / log 3 of the second block dominates log 4 / log 3**700
    assert rep["result"]["value"] == {"num": "11", "den": "2"}


def test_eval_avg_equal_dimensions_through_a_high_power():
    # log 2**37 / log 3**37 == log 2 / log 3: the two blocks share a dimension
    code, rep = run_command(
        ["eval", "--mean", "avg", f"cantor(0,1,2,1/3) U cantor(5,6,{2**37},1/{3**37})"]
    )
    assert code == 0
    assert rep["result"]["value"] == {"num": "3", "den": "1"}


def test_eval_avg_exact_for_far_power_related_diameters():
    # diameters 1 and 3**-600 of one family weigh 1 and 2**-600 exactly
    n = 3**600
    code, rep = run_command(
        ["eval", "--mean", "avg", f"cantor(0,1,2,1/3) U cantor(5,{5 * n + 1}/{n},2,1/3)"]
    )
    assert code == 0
    w = Q(1, 2**600)
    mean = (Q(1, 2) + w * (5 + Q(1, 2 * n))) / (1 + w)
    assert rep["result"]["status"] == "exact"
    assert rep["result"]["value"] == {"num": str(mean.numerator), "den": str(mean.denominator)}


def test_eval_iso_on_a_deep_tower_is_fast():
    # the closed form reads the top level off the block: no enumeration
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        code, rep = run_command(["eval", "--mean", "iso", "tower(12,0,1/4)"])
        best = min(best, time.perf_counter() - t0)
        assert code == 0
        assert rep["result"]["value"] == {"num": "0", "den": "1"}
    assert best < 0.010, best


def test_queries_on_a_point_deep_in_a_tower_answer():
    # S_1200 = 4**-1 + ... + 4**-1200 lies 1,200 clusters deep in the tower;
    # the cut and the clip walk the cluster chain in a loop
    s = f"{4**1200 - 1}/{3 * 4**1200}"
    code, rep = run_command(["eval", "--mean", "acc", f"below(tower(1500,0,1/4), {s})"])
    assert code == 0
    assert rep["result"]["value"] == {"num": "0", "den": "1"}
    code, rep = run_command(["disjoint", "--mean", "acc", "tower(1500,0,1/4)", f"[{s}, 1]"])
    assert code == 0
    assert rep["result"]["answer"] == "NO"
    assert rep["result"]["evidence"][1] == "order(V)=300 >= order(H)=0"


def test_round_iso_cuts_at_the_exact_mean():
    # k = 1/10 exactly, and no point of the set lies at or below it
    code, rep = run_command(["round", "--mean", "iso", "seq(1/10,1,1/2)"])
    assert code == 3
    assert any("empty half" in d for d in rep["diagnostics"])


def test_parser_is_built_once(monkeypatch):
    import argparse

    run_command(["eval", "--mean", "arith", "{1}"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    tables = cli._reader_table.cache_info().misses
    code, rep = run_command(["eval", "--mean", "arith", "{1,2}"])
    assert code == 0 and rep["result"]["value"] == {"num": "3", "den": "2"}
    assert built == []
    # the reader's table is read from the parser once, as the parser is built once
    assert cli._reader_table.cache_info().misses == tables == 1


def test_usage_error_leaves_the_parser_usable():
    code, rep = run_command(["eval", "--mean", "nonsense", "{1}"])
    assert code == 2 and rep["diagnostics"] == ["usage error"]
    code, rep = run_command(["eval", "--mean", "arith", "--tol", "0.5", "{1,2,6}"])
    assert code == 0 and rep["result"]["value"] == {"num": "3", "den": "1"}
    code, rep = run_command(["kbounds", "--mean", "arith", "{0, 10}"])
    assert code == 0 and rep["result"]["k_limsup"]["value"] == {"num": "10", "den": "1"}


@pytest.mark.parametrize("argv, code", [
    (["eval", "--mean", "avg", "cantor(0,1,2,1/3) U [2,3]"], 0),
    (["classify", "--mean", "acc", "--of", "tower(2,0,1/4)", "seq(0,1,1/2)"], 0),
    (["disjoint", "--mean", "iso", "seq(0,1,1/2)", "seq(0,1,1/4) U {3}"], 0),
    (["weigh", "--mean", "avg", "--kind", "bound", "cantor(0,1,2,1/3)", "cantor(5,6,2,1/3)"], 0),
    (["round", "--mean", "iso", "seq(0,-1,1/2) U seq(1/1000,1,1/3)"], 0),
    (["kbounds", "--mean", "lis", "seq(0,1,1/2) U {7}"], 0),
    (["witness", "--iso-small", "--depth", "4", "seq(0,1,1/2)"], 0),
    # a parse error, an empty set, and a cut inside a Cantor block
    (["eval", "--mean", "arith", "{1,2"], 2),
    (["eval", "--mean", "arith", "above({1,2}, 5)"], 3),
    (["eval", "--mean", "avg", "below(cantor(0,1,2,1/3), 1/4)"], 3),
])
def test_a_repeated_operand_gives_the_same_report(argv, code):
    first = run_command(argv)
    assert first[0] == code
    again = run_command(argv)
    assert again == first
    # the exit code and, byte for byte, the JSON of a fresh process
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    fresh = subprocess.run([sys.executable, "-m", "setmeans.cli", *argv, "--json"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert (fresh.returncode, fresh.stdout) == (code, json.dumps(again[1], indent=2) + "\n")


def test_a_long_text_is_not_kept():
    text = "{" + ", ".join(map(str, range(40))) + "}"
    assert len(text) > cli.KEPT_TEXT
    info = cli._parsed.cache_info()
    first = run_command(["eval", "--mean", "arith", text])
    assert first[0] == 0 and run_command(["eval", "--mean", "arith", text]) == first
    assert cli._parsed.cache_info() == info


def test_a_text_that_does_not_parse_is_not_kept():
    kept = cli._parsed.cache_info().currsize
    for _ in range(2):
        code, rep = run_command(["eval", "--mean", "arith", "[0 3]"])
        assert code == 2 and rep["diagnostics"][0].startswith("parse error")
    assert cli._parsed.cache_info().currsize == kept


def test_each_operand_gets_a_fresh_set():
    text = "seq(0,1,1/2) U [3,4]"
    # what a query or a caller derives from its set is not handed on
    first = cli._norm(text)
    run_command(["eval", "--mean", "avg", text])
    first.memo("probe", lambda: 1)
    second = cli._norm(text)
    assert second is not first and second.blocks is first.blocks
    assert second._derived == {}


def test_a_kept_operand_answers_as_a_fresh_parse(monkeypatch):
    text = "seq(0,1,1/2) U seq(1,1,1/3)"
    run_command(["eval", "--mean", "iso", text])
    run_command(["eval", "--mean", "iso", text])
    argv = ["eval", "--mean", "iso", "--tol", "0.25", text]
    kept = run_command(argv)
    # every operand parsed afresh, as in a new process
    monkeypatch.setattr(cli, "_parsed", cli.parse)
    assert kept == run_command(argv)
    assert kept[1]["result"]["value"]["tol"] == "0.25"


def test_iso_sums_over_shared_factors_exactly():
    # steps 6, 10 and 15 in units of 2**-1/6 share factors pairwise, so the
    # shared points are counted by inclusion-exclusion; the counts must stay
    # rational, exact when the weights are commensurable
    seqs = "seq(0,1,1/64) U seq(0,1,1/1024) U seq(0,1,1/32768) U "
    code, rep = run_command(["eval", "--mean", "iso", seqs + "seq(1,1,1/2)"])
    assert code == 0
    assert rep["result"]["status"] == "exact"
    assert rep["result"]["value"] == {"num": "15", "den": "19"}
    code, rep = run_command(["eval", "--mean", "iso", seqs + "seq(1,1,1/3)"])
    assert code == 0
    assert rep["result"]["value"] == {"approx": "0.702910282779512", "tol": "1e-09"}
    for argv in (["round", "--mean", "iso", seqs + "seq(1,1,1/3)"],
                 ["weigh", "--mean", "iso", "--kind", "bound", seqs + "seq(1,1,1/3)", "seq(0,1,1/2)"]):
        code, rep = run_command(argv)
        assert code == 0, rep["diagnostics"]
