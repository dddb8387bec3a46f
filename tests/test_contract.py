"""The public contract: exported names, the CLI surface and its exit codes.

Internals may change freely; these may not change without a deliberate
edit here.
"""

import argparse
import fractions

import setmeans
from setmeans import cli

PUBLIC_NAMES = [
    "Answer", "BlockSet", "Bounds", "Cantor", "CutAbove", "CutBelow",
    "CutNotRepresentable", "DEFAULT_CONFIG", "DefectCurve", "DomainViolation",
    "EmptyResult", "Finite", "GeomSeq", "IncomparableDimensions",
    "IntersectionNotRepresentable", "Interval", "KBounds", "LadderConfig",
    "LawKind", "LawReport", "Leaf", "MeanKind", "MeanValue",
    "MembershipUndecided", "Method", "ParseError", "Q", "RoundReport",
    "SetExpr", "SetMeansError", "Tower", "Translate", "Trend", "Union",
    "ValidationError", "Verdict", "WeightKind", "__version__",
    "arith_mean", "bounds", "build_iso_witness", "build_iso_witness_staged",
    "check_law", "comparable", "contains", "cut_set", "defect_curve",
    "derived_set", "diameter", "equal_weight", "gen_corpus", "intersect",
    "is_big_for", "is_small_for", "isolated_outside", "k_bounds",
    "k_disjoint", "level", "mean_of", "normalize", "normalize_blocks",
    "parse", "reflect_set", "render", "render_set", "round_defect",
    "round_witness", "translate_set", "union_sets", "weight_defect",
    "witness_stage_ratios",
]
# sampler_probe is no longer public: every smallness verdict is closed-form,
# and the probe is the oracle of those verdicts in tests/test_classify.py.
# Removed in 0.2.0: transitivity_probe (equal weight is equality of Weights,
# so it is transitive by construction), KBounds.skipped with the kbounds
# report's "skipped" key (always empty, as no cut is built), and
# BlockSet.provenance (written, never read).
# Removed in 0.3.0: the --xmax flag of every subcommand, DefectCurve.samples
# and DefectCurve.slope_estimate, and the weigh report's curve "samples" and
# "slope" keys (a curve is its exact tails: D(x) = alpha + beta*x right of
# "from" and left of "to", so no translate grid is sampled).

COMMON = ["--json", "--strict", "--tol", "--seed"]

# subcommand -> (option strings in declaration order, positional arguments)
SUBCOMMANDS = {
    "eval": (["-h", "--help", "--mean"] + COMMON, ["expr"]),
    "classify": (["-h", "--help", "--mean", "--of"] + COMMON, []),
    "disjoint": (["-h", "--help", "--mean", "--weak"] + COMMON, ["h1", "h2"]),
    "weigh": (["-h", "--help", "--mean", "--kind"] + COMMON, ["h1", "h2"]),
    "round": (["-h", "--help", "--mean"] + COMMON, ["expr"]),
    "laws": (["-h", "--help", "--mean", "--law", "--n", "--profile"] + COMMON, []),
    "kbounds": (["-h", "--help", "--mean"] + COMMON, ["expr"]),
    "witness": (["-h", "--help", "--iso-small", "--iso-big", "--depth"] + COMMON, ["expr"]),
}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_public_names():
    assert sorted(setmeans.__all__) == sorted(PUBLIC_NAMES)
    assert len(setmeans.__all__) == len(set(setmeans.__all__))
    for name in setmeans.__all__:
        assert hasattr(setmeans, name), name


def test_the_rational_is_a_fraction():
    # every rational the library makes is a setmeans.Q, an exact Fraction
    assert issubclass(setmeans.Q, fractions.Fraction)


def test_cli_subcommands_and_options():
    parser = cli._build_parser()
    assert [o for a in parser._actions for o in a.option_strings] == ["-h", "--help"]
    subs = _subparsers(parser)
    assert list(subs) == list(SUBCOMMANDS)
    for name, (options, positionals) in SUBCOMMANDS.items():
        actions = subs[name]._actions
        assert [o for a in actions for o in a.option_strings] == options, name
        assert [a.dest for a in actions if not a.option_strings] == positionals, name


def test_exit_codes():
    codes = {k: getattr(cli, k) for k in dir(cli) if k.startswith("EXIT_")}
    assert codes == {"EXIT_OK": 0, "EXIT_USAGE": 2, "EXIT_DOMAIN": 3, "EXIT_INCONCLUSIVE": 4}


def _shape(x):
    """The keys of a JSON report, nested; a list shows the shape of its first item."""
    if isinstance(x, dict):
        return {k: _shape(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_shape(x[0])] if x else []
    return None


Q_JSON = {"num": None, "den": None}
EXACT = {"status": None, "value": Q_JSON}
VERDICT = {"answer": None, "method": None, "evidence": [None]}

# subcommand argv -> exit code and shape of the "result" object
REPORT_SHAPES = [
    (["eval", "--mean", "arith", "{1,2}"], 0,
     {"type": None, "kind": None, **EXACT}),
    (["eval", "--mean", "iso", "seq(0,1,1/2) U seq(1,1,1/3)"], 0,
     {"type": None, "kind": None, "status": None, "value": {"approx": None, "tol": None}}),
    (["eval", "--mean", "acc", "[0,1]"], 3,
     {"type": None, "kind": None, "status": None, "reason": None}),
    (["classify", "--mean", "acc", "--of", "tower(2,0,1/4)", "seq(0,1,1/2)"], 0,
     {"type": None, "bundle": {"small": VERDICT, "big": VERDICT, "comparable": VERDICT}}),
    (["disjoint", "--mean", "lis", "{1,2}", "{1}"], 0,
     {"type": None, **VERDICT}),
    (["weigh", "--mean", "arith", "--kind", "bound", "{1,2}", "{3}"], 0,
     {"type": None, **VERDICT,
      "curve": {"type": None, "trend": None,
                "right": {"from": Q_JSON, "alpha": EXACT, "beta": EXACT},
                "left": {"to": Q_JSON, "alpha": EXACT, "beta": EXACT}}}),
    (["laws", "--mean", "arith", "--law", "shift-invariant", "--n", "3"], 0,
     {"type": None, "law": None, "mean": None, "trials": None, "skipped": None,
      "violations": []}),
    (["kbounds", "--mean", "arith", "{0,10}"], 0,
     {"type": None, "k_liminf": EXACT, "k_limsup": EXACT}),
    (["witness", "--iso-big", "--depth", "2", "seq(0,1,1/2)"], 0,
     {"type": None, "direction": None, "expr": None, "stages": [Q_JSON],
      "ratios": [{"eps": Q_JSON, "ratio": Q_JSON}]}),
]

# mean -> (set, keys of round's witness payload)
ROUND_WITNESS_KEYS = {
    "arith": ("{0,1,2,3}", ["split"]),
    "avg": ("[0,2] U [4,5]", ["measures"]),
    "acc": ("seq(0,1,1/2) U seq(5,1,1/2)", ["levels", "counts"]),
    "lis": ("seq(0,1,1/2) U seq(5,1,1/2)", ["half_mid"]),
    "iso": ("seq(0,1,1/2) U seq(5,1,1/2)", []),
}


def test_report_schema():
    top = ["command", "inputs", "result", "diagnostics", "version"]
    for argv, code, result in REPORT_SHAPES:
        got_code, rep = cli.run_command(argv)
        assert got_code == code, argv
        assert list(rep) == top, argv
        assert rep["version"] == setmeans.__version__ == "0.3.0", argv
        assert _shape(rep["result"]) == result, argv
        assert list(rep["result"]) == list(result), argv
    code, rep = cli.run_command(["frobnicate"])
    assert (code, list(rep), rep["result"]) == (2, top, None)


def test_round_report_schema():
    for mean, (expr, witness_keys) in ROUND_WITNESS_KEYS.items():
        code, rep = cli.run_command(["round", "--mean", mean, expr])
        assert code == 0, mean
        result = rep["result"]
        assert list(result) == ["type", "k", "k1", "k2", "defect", "verdict", "witness",
                                "witness_verdict"], mean
        assert list(result["witness"]) == witness_keys, mean
        assert _shape(result["verdict"]) == VERDICT
        assert _shape(result["witness_verdict"]) == VERDICT
