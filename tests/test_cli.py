"""CLI commands, exit codes, and JSON report determinism."""

import json

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


def test_laws_command():
    code, rep = run_command(
        ["laws", "--mean", "avg", "--law", "shift-invariant",
         "--seed", "4", "--n", "25", "--profile", "intervals"]
    )
    assert code == 0
    assert rep["result"]["violations"] == []
    assert rep["result"]["trials"] > 0


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


def test_ladder_flags_reach_the_evaluator():
    # six steps are not enough for the ladder to stabilize at 1e-9
    code, rep = run_command(
        ["eval", "--mean", "iso", "--ladder-steps", "6", "seq(0,1,1/2)"]
    )
    assert code == 3
    assert "no convergence" in rep["result"]["reason"]
    # a loose tolerance converges immediately
    code, rep = run_command(
        ["eval", "--mean", "iso", "--tol", "0.25", "seq(0,1,1/2)"]
    )
    assert code == 0
    assert rep["result"]["status"] == "approx"


def test_strict_mode_flags_inconclusive():
    # ratios so close that the leading count coefficients cannot be
    # separated numerically: the relation tester must stay inconclusive
    near_half = f"{10**300 // 2 + 1}/{10**300}"
    code, rep = run_command(
        ["weigh", "--mean", "iso", "--kind", "bound",
         "seq(0,1,1/2)", f"seq(9,1,{near_half})"]
    )
    assert code == 0
    assert rep["result"]["answer"] == "INCONCLUSIVE"
    code, rep = run_command(
        ["weigh", "--mean", "iso", "--kind", "bound", "--strict",
         "seq(0,1,1/2)", f"seq(9,1,{near_half})"]
    )
    assert code == 4


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


def test_main_prints_human(capsys):
    from setmeans.cli import main

    code = main(["eval", "--mean", "arith", "{1,2,3}"])
    out = capsys.readouterr().out
    assert code == 0
    assert "arith mean" in out


def test_eval_avg_with_a_huge_cantor_ratio():
    # the exact root test on 3**700 must not go through a float, which overflows
    n = 3**700
    code, rep = run_command(
        ["eval", "--mean", "avg", f"cantor(0,1,4,1/{n}) U cantor(5,6,2,1/3)"]
    )
    assert code == 0
    # dimension log 2 / log 3 of the second block dominates log 4 / log 3**700
    assert rep["result"]["value"] == {"num": "11", "den": "2"}
