"""The public contract: exported names, the CLI surface and its exit codes.

Internals may change freely; these may not change without a deliberate
edit here.
"""

import argparse

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
    "round_witness", "sampler_probe", "transitivity_probe", "translate_set",
    "union_sets", "weight_defect", "witness_stage_ratios",
]

COMMON = ["--json", "--strict", "--tol", "--xmax", "--seed"]

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
