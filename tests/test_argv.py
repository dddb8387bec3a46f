"""The CLI edge: the one-pass argv reader against argparse, and a fuzz of
``run_command`` over argvs drawn from the CLI's own vocabulary.

``cli._read_argv`` must return exactly what ``parse_args`` returns, or None;
it must never accept an argv that argparse rejects.  ``run_command`` must
never raise, and must return a known exit code and a report that is JSON.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from setmeans import cli, gen_corpus, render
from setmeans.laws import PROFILES

ROOT = Path(__file__).resolve().parent.parent
PARSER = cli._build_parser()
(_SUBS,) = [a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)]
SUBPARSERS = _SUBS.choices

OPTIONS = sorted({o for p in SUBPARSERS.values() for a in p._actions for o in a.option_strings})
# every shorter spelling of a long flag, unique or not
ABBREVIATIONS = sorted({o[:k] for o in OPTIONS if o.startswith("--") for k in range(3, len(o))})
CHOICES = sorted({c for p in SUBPARSERS.values() for a in p._actions if a.choices for c in a.choices})
NUMBERS = ["0", "-1", "1", "3", str(10**30), "9" * 5000, "nan", "-nan", "inf", "1e-6", "1e308",
           "٣", "²", "0x10", "1_0", " 2", ""]
TEXTS = [render(e) for profile in PROFILES for e in gen_corpus(1, 2, profile)] + [
    "{1,2}", "{1}", "seq(0,1,1/2)", "[0,1]", "{", "{-1}", "-", "- 1"]
JUNK = ["--", "-h", "--help", "--bogus", "-x", "--mean=arith", "--tol=1e-6", "--json=1",
        "--of=a", "frobnicate"]
VALUES = CHOICES + NUMBERS + TEXTS
TOKENS = st.one_of(st.sampled_from(OPTIONS), st.sampled_from(ABBREVIATIONS),
                   st.sampled_from(VALUES), st.sampled_from(JUNK),
                   st.builds("{}={}".format, st.sampled_from(OPTIONS + ABBREVIATIONS),
                             st.sampled_from(VALUES)))


@st.composite
def plain_argvs(draw):
    """A subcommand and some of its actions, each spelled in full with the
    values it takes, in any order; then perhaps a few stray tokens."""
    name = draw(st.sampled_from(list(SUBPARSERS)))
    mostly = st.sampled_from([True] * 9 + [False])
    chunks = []
    for a in SUBPARSERS[name]._actions:
        if a.default is argparse.SUPPRESS or not draw(mostly if a.required else st.booleans()):
            continue
        values = st.sampled_from(list(a.choices)) if a.choices and draw(mostly) else \
            st.sampled_from(NUMBERS if a.type else TEXTS)
        chunks.append(a.option_strings[-1:]
                      + [draw(values) for _ in range(1 if a.nargs is None else a.nargs)])
    argv = [name] + [t for c in draw(st.permutations(chunks)) for t in c]
    if not draw(mostly):
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


ARGVS = st.one_of(
    plain_argvs(),
    plain_argvs(),
    st.lists(TOKENS, max_size=8).flatmap(
        lambda rest: st.sampled_from(list(SUBPARSERS) + ["frobnicate"]).map(lambda c: [c] + rest)),
    st.just([]),
).flatmap(lambda argv: st.sampled_from([list(argv), tuple(argv)]))


def parse_args(argv):
    """``parse_args``'s Namespace, or None where it exits; its output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return PARSER.parse_args(argv)
        except SystemExit:
            return None


def same(a, b) -> bool:
    """Namespaces equal field by field, a NaN equal to a NaN."""
    def eq(x, y):
        return x == y or (isinstance(x, float) and isinstance(y, float)
                          and math.isnan(x) and math.isnan(y))
    return vars(a).keys() == vars(b).keys() and all(eq(v, vars(b)[k]) for k, v in vars(a).items())


@settings(max_examples=1000)
@given(ARGVS)
def test_reader_agrees_with_argparse(argv):
    ns = cli._read_argv(argv)
    if ns is not None:
        parsed = parse_args(argv)
        assert parsed is not None, argv
        assert same(ns, parsed), (argv, ns, parsed)


@given(ARGVS)
def test_run_command_is_total(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code, report = cli.run_command(argv)
    assert code in (0, 2, 3, 4), argv
    json.dumps(report)


@pytest.mark.parametrize("argv, accepted", [
    (["eval", "--mean", "arith", "{1,2}"], True),
    (("eval", "--mean", "arith", "{1,2}"), True),
    (["eval", "--mean", "iso", "--tol", "nan", "{1}"], True),
    (["witness", "--iso-big", "--iso-big", "{1}"], True),
    (["eval", "--mean", "arith", "--mean", "lis", "{1}"], True),
    ([], False),
    (["eval", "--me", "arith", "{1}"], False),
    (["eval", "--mean=arith", "{1}"], False),
    (["eval", "--mean", "arith", "--", "{1}"], False),
    (["eval", "--mean", "arith", "--seed", "-1", "{1}"], False),
    (["eval", "--mean", "arith", "-h"], False),
    (["eval", "--mean", "mode", "{1}"], False),
    (["eval", "--mean", "arith", "{1}", "{2}"], False),
    (["eval", "--mean", "arith"], False),
    (["eval", "--mean", "arith", "--n", "3", "{1}"], False),
    (["classify", "--mean", "arith", "--of", "{1}"], False),
    (["witness", "{1}"], False),
    (["witness", "--iso-small", "--iso-big", "{1}"], False),
    (["laws", "--mean", "arith", "--law", "internal", "--n", "9" * 5000], False),
])
def test_reader_reads_only_plain_argvs(argv, accepted):
    ns = cli._read_argv(argv)
    assert (ns is not None) == accepted
    if accepted:
        assert same(ns, parse_args(argv))


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [101, 9001])
@pytest.mark.parametrize("workload", ["query-exact", "query-iso"])
def test_reader_reads_every_benchmark_query(workload, seed):
    import setmeans

    for op in _workloads().build(setmeans, workload, seed).ops:
        for argv in (op.argv, list(op.argv)):
            ns = cli._read_argv(argv)
            assert ns is not None and same(ns, parse_args(argv)), argv
