"""Command-line driver and JSON report emitter.

Every subcommand takes --json.  A subcommand takes --tol only where an
approximate value can appear (eval, round, weigh, laws), --strict only
where a verdict can be INCONCLUSIVE (weigh, round), and --seed only for
its corpus (laws); any other of these flags is a usage error.

Exit codes: 0 success, 2 parse/validation/usage error, 3 domain error,
4 inconclusive result under --strict.  Reports are deterministic: the same
argv produces byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .classify import (
    Verdict,
    build_iso_witness_staged,
    classify_bundle,
    k_disjoint,
    witness_stage_ratios,
)
from .dsl import int_text, parse, render_set
from .errors import DomainViolation, ParseError, SetMeansError, ValidationError
from .laws import PROFILES, LawKind, check_law, gen_corpus
from .means import LadderConfig, MeanKind, MeanValue, k_bounds, mean_of
from .rational import CACHE_SIZE, Q
from .roundness import round_pass
from .sets import normalize
from .weigh import WeightKind, weigh_pair

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INCONCLUSIVE = 4


def _q_json(q: Q) -> dict:
    return {"num": int_text(q.numerator), "den": int_text(q.denominator)}


def _mean_json(mv: MeanValue) -> dict:
    if mv.status == "exact":
        return {"status": "exact", "value": _q_json(mv.value)}
    if mv.status == "approx":
        return {"status": "approx",
                "value": {"approx": f"{mv.approx:.15g}", "tol": f"{mv.tol:.15g}"}}
    return {"status": "undefined", "reason": mv.reason}


def _verdict_json(v: Verdict) -> dict:
    return {"answer": v.answer.value, "evidence": list(v.evidence)}


def _curve_json(curve) -> dict:
    def tail(end, t):
        return {end: _q_json(t.threshold), "alpha": _mean_json(t.alpha), "beta": _mean_json(t.beta)}
    return {"type": "curve", "trend": curve.trend.value,
            "right": tail("from", curve.right), "left": tail("to", curve.left)}


_COMMON = {
    "--json": dict(action="store_true", help="emit a JSON report"),
    "--strict": dict(action="store_true", help="treat INCONCLUSIVE results as failures (exit 4)"),
    "--tol": dict(type=float, default=1e-9, help="largest error of an approximate value"),
    "--seed": dict(type=int, default=0, help="the corpus seed"),
}


def _add_common(sub, *flags):
    """--json, then those of the other common flags that the subcommand reads."""
    for flag in ("--json", *flags):
        sub.add_argument(flag, **_COMMON[flag])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    p = argparse.ArgumentParser(prog="setmeans",
                                description="means on infinite bounded subsets of the reals")
    sub = p.add_subparsers(dest="command", required=True)
    means = [k.value for k in MeanKind]

    s = sub.add_parser("eval", help="evaluate a mean of a set expression")
    s.add_argument("--mean", choices=means, required=True)
    s.add_argument("expr")
    _add_common(s, "--tol")

    s = sub.add_parser("classify", help="small/big/comparable bundle for V against H")
    s.add_argument("--mean", choices=means, required=True)
    s.add_argument("--of", nargs=2, metavar=("H", "V"), required=True)
    _add_common(s)

    s = sub.add_parser("disjoint", help="test mean-relative disjointness")
    s.add_argument("--mean", choices=means, required=True)
    s.add_argument("--weak", action="store_true")
    s.add_argument("h1")
    s.add_argument("h2")
    _add_common(s)

    s = sub.add_parser("weigh", help="equal-weight relation between two sets")
    s.add_argument("--mean", choices=means, required=True)
    s.add_argument("--kind", choices=[k.value for k in WeightKind], required=True)
    s.add_argument("h1")
    s.add_argument("h2")
    _add_common(s, "--strict", "--tol")

    s = sub.add_parser("round", help="roundness of a set under a mean")
    s.add_argument("--mean", choices=means, required=True)
    s.add_argument("expr")
    _add_common(s, "--strict", "--tol")

    s = sub.add_parser("laws", help="property-check a mean axiom over a corpus")
    s.add_argument("--mean", choices=means, required=True)
    s.add_argument("--law", choices=[k.value for k in LawKind], required=True)
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--profile", default="mixed", choices=PROFILES)
    _add_common(s, "--tol", "--seed")

    s = sub.add_parser("kbounds", help="mean-relative liminf and limsup")
    s.add_argument("--mean", choices=means, required=True)
    s.add_argument("expr")
    _add_common(s)

    s = sub.add_parser("witness", help="construct an isolated-point small/big witness")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--iso-small", action="store_true")
    g.add_argument("--iso-big", action="store_true")
    s.add_argument("--depth", type=int, default=5)
    s.add_argument("expr")
    _add_common(s)

    return p


#: the longest operand text whose expression is kept: a kept text holds its
#: expression and canonical blocks: about 1.5 KB for the benchmark's texts
#: (35 characters in the median), and about 60 KB for the costliest text
#: found at this length, a cut 100 levels deep into a Cantor block
KEPT_TEXT = 128


@functools.lru_cache(maxsize=CACHE_SIZE)
def _parsed(text: str):
    """The expression parsed from text, kept for the next query on the same
    text; a text that raises is not kept.  parse is looked up at call time,
    so a wrapper put on cli.parse (the benchmark's tracer) sees each miss."""
    return parse(text)


def _norm(text: str):
    """The canonical set of an operand text.  A text of at most KEPT_TEXT
    characters is parsed once per process (CACHE_SIZE texts are kept), and
    each call returns a fresh set over its expression's kept blocks, so
    nothing a set memoizes outlives its query."""
    return normalize(_parsed(text) if len(text) <= KEPT_TEXT else parse(text))


@functools.cache
def _reader_table() -> dict:
    """Per subcommand, its subparser's actions compiled once into the flat
    tables `_read_argv` reads: the defaults, with the subcommand; each option
    string's (dest, nargs, type, choices, const, default); the positionals';
    the required dests; each mutually exclusive group's (required, dests).
    Help, like any action whose default is suppressed, is left out; so, for
    argparse to read, is a subcommand with an action of a kind not modeled
    (count, append, an optional nargs), a typed string default, a shared dest
    or defaults of the subparser's own."""
    (subs,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    tables = {}
    for name, p in subs.choices.items():
        acts = [a for a in p._actions if a.default is not argparse.SUPPRESS]
        if p._defaults or len({a.dest for a in acts}) < len(acts) or not all(
                type(a) in (argparse._StoreAction, argparse._StoreConstAction,
                            argparse._StoreTrueAction, argparse._StoreFalseAction)
                and (a.nargs is None or type(a.nargs) is int)
                and not (a.type and isinstance(a.default, str)) for a in acts):
            continue
        spec = {a: (a.dest, a.nargs, a.type or str, a.choices, a.const, a.default) for a in acts}
        tables[name] = ({subs.dest: name, **{a.dest: a.default for a in acts}},
                        {o: spec[a] for a in acts for o in a.option_strings},
                        [spec[a] for a in acts if not a.option_strings],
                        {a.dest for a in p._actions if a.required},
                        [(g.required, {a.dest for a in g._group_actions})
                         for g in p._mutually_exclusive_groups])
    return tables


def _read_argv(argv) -> argparse.Namespace | None:
    """The Namespace that `parse_args(argv)` returns, read in one loop over
    the flat tables, for a plain argv: a subcommand, then flags spelled in
    full, each followed by its values, and the positionals, no value starting
    with "-".  Any other argv (help, an abbreviation, "--flag=value", a usage
    error, a subcommand the tables leave out) gives None."""
    if not argv or (table := _reader_table().get(argv[0])) is None:
        return None
    defaults, options, positionals, required, groups = table
    ns = argparse.Namespace()
    values = vars(ns)
    values.update(defaults)
    # dests given a non-default value: argparse checks groups against them, and here required dests
    seen, i, taken = set(), 1, 0
    while i < len(argv):
        if argv[i][:1] == "-":
            spec, i = options.get(argv[i]), i + 1
        else:
            spec, taken = positionals[taken] if taken < len(positionals) else None, taken + 1
        if spec is None:
            return None
        dest, nargs, kind, choices, value, default = spec
        if nargs != 0:  # not a constant: one value, or a list of nargs values
            strings, i, value = argv[i:i + (nargs or 1)], i + (nargs or 1), []
            if len(strings) < (nargs or 1):
                return None
            for s in strings:
                try:
                    v = kind(s)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    return None
                if s[:1] == "-" or choices is not None and v not in choices:
                    return None
                value.append(v)
            if nargs is None:
                value = v
        values[dest] = value
        if value is not default:
            seen.add(dest)
    if not required <= seen:
        return None
    for needed, dests in groups:
        if len(dests & seen) > 1 or needed and not dests & seen:
            return None
    return ns


def run_command(argv) -> tuple[int, dict]:
    """Execute one CLI invocation and return (exit code, report)."""
    return _run(argv)[1:]


def _run(argv) -> tuple[argparse.Namespace | None, int, dict]:
    """The parsed argv, or None after a usage error, with run_command's
    exit code and report; argv None reads sys.argv[1:], as main does."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:
        return (None, EXIT_USAGE if exc.code not in (0, None) else 0,
                {"command": " ".join(argv), "inputs": [], "result": None,
                 "diagnostics": ["usage error" if exc.code else "help"], "version": __version__})
    report = {"command": args.command, "inputs": [], "result": None, "diagnostics": [],
              "version": __version__}
    try:
        code = _dispatch(args, report)
    except SetMeansError as exc:
        # bad input exits 2; any other library error is a domain error
        if isinstance(exc, ParseError):
            report["diagnostics"].append(
                f"parse error: {exc} (expected {', '.join(exc.expected)})")
        elif isinstance(exc, ValidationError):
            report["diagnostics"].append(f"validation error: {exc}")
        else:
            report["diagnostics"].append(f"domain error: {type(exc).__name__}: {exc}")
            return args, EXIT_DOMAIN, report
        return args, EXIT_USAGE, report
    if code == EXIT_OK and getattr(args, "strict", False) and _is_inconclusive(report["result"]):
        report["diagnostics"].append("strict mode: result is INCONCLUSIVE")
        return args, EXIT_INCONCLUSIVE, report
    return args, code, report


def _is_inconclusive(result: dict) -> bool:
    """Whether the result's own answer, its verdict or its witness verdict is INCONCLUSIVE."""
    return any(v.get("answer") == "INCONCLUSIVE"
               for v in (result, result.get("verdict") or {}, result.get("witness_verdict") or {}))


def _dispatch(args, report) -> int:
    # a subcommand that reads tol checks it before it reads its operands
    cfg = LadderConfig(tol=args.tol) if "tol" in args else None
    result = report["result"] = _COMMANDS[args.command](args, report, cfg)
    if result["type"] == "mean" and result["status"] == "undefined":
        report["diagnostics"].append(f"undefined: {result['reason']}")
        return EXIT_DOMAIN
    return EXIT_OK


def _eval(args, report, cfg) -> dict:
    report["inputs"] = [args.expr]
    mv = mean_of(_norm(args.expr), MeanKind(args.mean), cfg)
    return {"type": "mean", "kind": args.mean, **_mean_json(mv)}


def _classify(args, report, cfg) -> dict:
    report["inputs"] = list(args.of)
    h, v = _norm(args.of[0]), _norm(args.of[1])
    bundle = {}
    for name, verdict in classify_bundle(h, v, MeanKind(args.mean)).items():
        if isinstance(verdict, DomainViolation):
            bundle[name] = None
            report["diagnostics"].append(f"{name}: undefined ({verdict})")
        else:
            bundle[name] = _verdict_json(verdict)
    return {"type": "verdict", "bundle": bundle}


def _disjoint(args, report, cfg) -> dict:
    report["inputs"] = [args.h1, args.h2]
    v = k_disjoint(_norm(args.h1), _norm(args.h2), MeanKind(args.mean), weak=args.weak)
    return {"type": "verdict", **_verdict_json(v)}


def _weigh(args, report, cfg) -> dict:
    report["inputs"] = [args.h1, args.h2]
    v, curve = weigh_pair(_norm(args.h1), _norm(args.h2), MeanKind(args.mean),
                          WeightKind(args.kind), cfg)
    return {"type": "verdict", **_verdict_json(v), "curve": _curve_json(curve)}


def _round(args, report, cfg) -> dict:
    report["inputs"] = [args.expr]
    rep, wit = round_pass(_norm(args.expr), MeanKind(args.mean), cfg)
    return {"type": "round", "k": _mean_json(rep.k), "k1": _mean_json(rep.k1),
            "k2": _mean_json(rep.k2), "defect": _mean_json(rep.defect),
            "verdict": _verdict_json(rep.verdict), "witness": rep.witness,
            "witness_verdict": _verdict_json(wit)}


def _laws(args, report, cfg) -> dict:
    corpus = gen_corpus(args.seed, args.n, args.profile)
    rep = check_law(MeanKind(args.mean), LawKind(args.law), corpus, cfg)
    report["inputs"] = [f"seed={args.seed}", f"n={args.n}", f"profile={args.profile}"]
    return {"type": "law", "law": rep.law.value, "mean": rep.mean.value,
            "trials": rep.trials, "skipped": rep.skipped,
            "violations": [{"inputs": list(v.inputs), "observed": v.observed}
                           for v in rep.violations]}


def _kbounds(args, report, cfg) -> dict:
    report["inputs"] = [args.expr]
    kb = k_bounds(_norm(args.expr), MeanKind(args.mean))
    return {"type": "kbounds", "k_liminf": _mean_json(kb.k_liminf),
            "k_limsup": _mean_json(kb.k_limsup)}


def _witness(args, report, cfg) -> dict:
    report["inputs"] = [args.expr]
    h2 = _norm(args.expr)
    which = "small" if args.iso_small else "big"
    witness, stages = build_iso_witness_staged(h2, which, args.depth)
    ratios = witness_stage_ratios(witness, h2, stages)
    return {"type": "witness", "direction": which, "expr": render_set(witness),
            "stages": [_q_json(s) for s in stages],
            "ratios": [{"eps": _q_json(e), "ratio": _q_json(r)} for e, r in ratios]}


#: each subcommand's handler: it sets the report's inputs and returns its result
_COMMANDS = {"eval": _eval, "classify": _classify, "disjoint": _disjoint, "weigh": _weigh,
             "round": _round, "laws": _laws, "kbounds": _kbounds, "witness": _witness}


def _human_lines(report) -> list[str]:
    result = report["result"]
    lines = []
    # diagnostics that a result line already says, each printed once
    said = set()
    kind = result and result["type"]
    if kind == "mean":
        st = result["status"]
        if st == "exact":
            lines.append(f"{result['kind']} mean = {_fmt_val(result)}")
        elif st == "approx":
            lines.append(f"{result['kind']} mean ~ {result['value']['approx']} "
                         f"(tol {result['value']['tol']})")
        else:
            lines.append(f"{result['kind']} mean undefined: {result['reason']}")
            said.add(f"undefined: {result['reason']}")
    elif kind == "verdict" and "bundle" in result:
        for name, v in result["bundle"].items():
            if v is None:
                # the reason is only in the diagnostics
                line = next(d for d in report["diagnostics"]
                            if d.startswith(f"{name}: undefined"))
                lines.append(line)
                said.add(line)
            else:
                lines.append(f"{name}: {v['answer']}")
    elif kind == "verdict":
        lines.append(result["answer"])
        lines.extend(f"  {e}" for e in result["evidence"][:4])
    elif kind == "round":
        v = result["verdict"]
        lines.append(f"round: {v['answer']}  k={_fmt_val(result['k'])} "
                     f"k1={_fmt_val(result['k1'])} k2={_fmt_val(result['k2'])} "
                     f"defect={_fmt_val(result['defect'])}")
    elif kind == "law":
        lines.append(f"law {result['law']} under {result['mean']}: "
                     f"{result['trials']} trials, {len(result['violations'])} violations, "
                     f"{result['skipped']} skipped")
        for v in result["violations"][:5]:
            lines.append(f"  violation: {v['inputs']} -> {v['observed']}")
    elif kind == "kbounds":
        lines.append(f"k-liminf = {_fmt_val(result['k_liminf'])}, "
                     f"k-limsup = {_fmt_val(result['k_limsup'])}")
    elif kind == "witness":
        lines.append(f"witness ({result['direction']}): {result['expr']}")
        lines.append("stage ratios: " + ", ".join(_fmt_q(r["ratio"]) for r in result["ratios"]))
    lines.extend(d for d in report["diagnostics"] if d not in said)
    return lines


def _fmt_q(qj) -> str:
    """A JSON rational as text: an integer prints as n, not n/1."""
    return qj["num"] if qj["den"] == "1" else f"{qj['num']}/{qj['den']}"


def _fmt_val(mj) -> str:
    if mj["status"] == "exact":
        return _fmt_q(mj["value"])
    if mj["status"] == "approx":
        return f"~{mj['value']['approx']}"
    return f"undefined({mj['reason']})"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args, code, report = _run(argv)
    # a usage error has no parsed flags: its report is JSON when the text asks
    if ("--json" in argv) if args is None else args.json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        for line in _human_lines(report):
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
