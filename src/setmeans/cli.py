"""Command-line driver and JSON report emitter.

Exit codes: 0 success, 2 parse/validation/usage error, 3 domain error,
4 inconclusive result under --strict.  Reports are deterministic: the same
argv and seed produce byte-identical JSON.
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


def _float_str(v: float) -> str:
    return f"{v:.15g}"


def _mean_json(mv: MeanValue) -> dict:
    if mv.status == "exact":
        return {"status": "exact", "value": _q_json(mv.value)}
    if mv.status == "approx":
        return {"status": "approx",
                "value": {"approx": _float_str(mv.approx), "tol": _float_str(mv.tol)}}
    return {"status": "undefined", "reason": mv.reason}


def _verdict_json(v: Verdict) -> dict:
    return {"answer": v.answer.value, "method": v.method.value,
            "evidence": list(v.evidence)}


def _curve_json(curve) -> dict:
    def tail(end, t):
        return {end: _q_json(t.threshold), "alpha": _mean_json(t.alpha), "beta": _mean_json(t.beta)}
    return {"type": "curve", "trend": curve.trend.value,
            "right": tail("from", curve.right), "left": tail("to", curve.left)}


def _add_common(sub):
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--strict", action="store_true",
                     help="treat INCONCLUSIVE results as failures (exit 4)")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="largest error of an approximate value")
    sub.add_argument("--seed", type=int, default=0)


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
    _add_common(s)

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
    _add_common(s)

    s = sub.add_parser("round", help="roundness of a set under a mean")
    s.add_argument("--mean", choices=means, required=True)
    s.add_argument("expr")
    _add_common(s)

    s = sub.add_parser("laws", help="property-check a mean axiom over a corpus")
    s.add_argument("--mean", choices=means, required=True)
    s.add_argument("--law", choices=[k.value for k in LawKind], required=True)
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--profile", default="mixed", choices=PROFILES)
    _add_common(s)

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
    """Per subcommand, what `_read_argv` needs from its subparser's own actions;
    help, like any action whose default is suppressed, is left out."""
    (subs,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, p in subs.choices.items():
        acts = [a for a in p._actions if a.default is not argparse.SUPPRESS]
        table[name] = (p, {subs.dest: name, **{a.dest: a.default for a in acts}},
                       {o: a for a in acts for o in a.option_strings},
                       [a for a in acts if not a.option_strings],
                       {a for a in acts if a.required},
                       [(g.required, g._group_actions) for g in p._mutually_exclusive_groups])
    return table


def _read_argv(argv) -> argparse.Namespace | None:
    """The Namespace that `parse_args(argv)` returns, read in one pass, for a
    plain argv: a subcommand, then flags spelled in full, each followed by its
    values, and the positionals, no value starting with "-".  Any other argv
    (help, an abbreviation, "--flag=value", a usage error) gives None."""
    entry = _reader_table().get(argv[0]) if argv else None
    if entry is None:
        return None
    parser, defaults, options, positionals, required, groups = entry
    ns, seen, rest, positionals = argparse.Namespace(**defaults), set(), argv[1:], iter(positionals)
    i = 0
    while i < len(rest):
        if rest[i].startswith("-"):
            action, i = options.get(rest[i]), i + 1
        else:
            action = next(positionals, None)
        if action is None or not isinstance(n := 1 if action.nargs is None else action.nargs, int):
            return None
        strings, i = rest[i:i + n], i + n
        if len(strings) < n or any(s.startswith("-") for s in strings):
            return None
        try:
            values = [(action.type or str)(s) for s in strings]
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and any(v not in action.choices for v in values):
            return None
        value = values[0] if action.nargs is None else values
        action(parser, ns, value)
        if value is not action.default:  # what argparse counts as seen in a group
            seen.add(action)
    if not required <= seen or any(not req <= sum(a in seen for a in acts) <= 1
                                   for req, acts in groups):
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
                 "diagnostics": ["usage error" if exc.code else "help"],
                 "version": __version__})
    report = {
        "command": args.command,
        "inputs": [],
        "result": None,
        "diagnostics": [],
        "version": __version__,
    }
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
    if code == EXIT_OK and args.strict and _is_inconclusive(report["result"]):
        report["diagnostics"].append("strict mode: result is INCONCLUSIVE")
        return args, EXIT_INCONCLUSIVE, report
    return args, code, report


def _is_inconclusive(result: dict) -> bool:
    """Whether the result's own answer, its verdict or its witness verdict is INCONCLUSIVE."""
    return any(v.get("answer") == "INCONCLUSIVE"
               for v in (result, result.get("verdict") or {}, result.get("witness_verdict") or {}))


def _dispatch(args, report) -> int:
    cfg = LadderConfig(tol=args.tol)
    cmd = args.command

    if cmd == "eval":
        report["inputs"] = [args.expr]
        h = _norm(args.expr)
        mv = mean_of(h, MeanKind(args.mean), cfg)
        report["result"] = {"type": "mean", "kind": args.mean, **_mean_json(mv)}
        if mv.status == "undefined":
            report["diagnostics"].append(f"undefined: {mv.reason}")
            return EXIT_DOMAIN
        return EXIT_OK

    if cmd == "classify":
        report["inputs"] = list(args.of)
        h = _norm(args.of[0])
        v = _norm(args.of[1])
        bundle = {}
        for name, verdict in classify_bundle(h, v, MeanKind(args.mean), cfg).items():
            if isinstance(verdict, DomainViolation):
                bundle[name] = None
                report["diagnostics"].append(f"{name}: undefined ({verdict})")
            else:
                bundle[name] = _verdict_json(verdict)
        report["result"] = {"type": "verdict", "bundle": bundle}
        return EXIT_OK

    if cmd == "disjoint":
        report["inputs"] = [args.h1, args.h2]
        v = k_disjoint(_norm(args.h1), _norm(args.h2), MeanKind(args.mean),
                       weak=args.weak, cfg=cfg)
        report["result"] = {"type": "verdict", **_verdict_json(v)}
        return EXIT_OK

    if cmd == "weigh":
        report["inputs"] = [args.h1, args.h2]
        v, curve = weigh_pair(_norm(args.h1), _norm(args.h2), MeanKind(args.mean),
                              WeightKind(args.kind), cfg)
        report["result"] = {"type": "verdict", **_verdict_json(v),
                            "curve": _curve_json(curve)}
        return EXIT_OK

    if cmd == "round":
        report["inputs"] = [args.expr]
        h = _norm(args.expr)
        kind = MeanKind(args.mean)
        rep, wit = round_pass(h, kind, cfg)
        report["result"] = {
            "type": "round",
            "k": _mean_json(rep.k),
            "k1": _mean_json(rep.k1),
            "k2": _mean_json(rep.k2),
            "defect": _mean_json(rep.defect),
            "verdict": _verdict_json(rep.verdict),
            "witness": rep.witness,
            "witness_verdict": _verdict_json(wit),
        }
        return EXIT_OK

    if cmd == "laws":
        corpus = gen_corpus(args.seed, args.n, args.profile)
        rep = check_law(MeanKind(args.mean), LawKind(args.law), corpus, cfg)
        report["inputs"] = [f"seed={args.seed}", f"n={args.n}", f"profile={args.profile}"]
        report["result"] = {
            "type": "law",
            "law": rep.law.value,
            "mean": rep.mean.value,
            "trials": rep.trials,
            "skipped": rep.skipped,
            "violations": [
                {"inputs": list(v.inputs), "observed": v.observed}
                for v in rep.violations
            ],
        }
        return EXIT_OK

    if cmd == "kbounds":
        report["inputs"] = [args.expr]
        kb = k_bounds(_norm(args.expr), MeanKind(args.mean), cfg)
        report["result"] = {
            "type": "kbounds",
            "k_liminf": _mean_json(kb.k_liminf),
            "k_limsup": _mean_json(kb.k_limsup),
        }
        return EXIT_OK

    if cmd == "witness":
        report["inputs"] = [args.expr]
        h2 = _norm(args.expr)
        which = "small" if args.iso_small else "big"
        witness, stages = build_iso_witness_staged(h2, which, args.depth, cfg)
        ratios = witness_stage_ratios(witness, h2, stages)
        report["result"] = {
            "type": "witness",
            "direction": which,
            "expr": render_set(witness),
            "stages": [_q_json(s) for s in stages],
            "ratios": [{"eps": _q_json(e), "ratio": _q_json(r)} for e, r in ratios],
        }
        return EXIT_OK

    raise ValueError(f"unknown command {cmd}")


def _human_lines(report) -> list[str]:
    result = report["result"]
    lines = []
    # diagnostics that a result line already says, each printed once
    said = set()
    if result is None:
        pass
    elif result["type"] == "mean":
        st = result["status"]
        if st == "exact":
            lines.append(f"{result['kind']} mean = {_fmt_val(result)}")
        elif st == "approx":
            lines.append(f"{result['kind']} mean ~ {result['value']['approx']} "
                         f"(tol {result['value']['tol']})")
        else:
            lines.append(f"{result['kind']} mean undefined: {result['reason']}")
            said.add(f"undefined: {result['reason']}")
    elif result["type"] == "verdict" and "bundle" in result:
        for name, v in result["bundle"].items():
            if v is None:
                # the reason is only in the diagnostics
                line = next(d for d in report["diagnostics"]
                            if d.startswith(f"{name}: undefined"))
                lines.append(line)
                said.add(line)
            else:
                lines.append(f"{name}: {v['answer']} [{v['method']}]")
    elif result["type"] == "verdict":
        lines.append(f"{result['answer']} [{result['method']}]")
        lines.extend(f"  {e}" for e in result["evidence"][:4])
    elif result["type"] == "round":
        v = result["verdict"]
        lines.append(f"round: {v['answer']}  k={_fmt_val(result['k'])} "
                     f"k1={_fmt_val(result['k1'])} k2={_fmt_val(result['k2'])} "
                     f"defect={_fmt_val(result['defect'])}")
    elif result["type"] == "law":
        lines.append(f"law {result['law']} under {result['mean']}: "
                     f"{result['trials']} trials, {len(result['violations'])} violations, "
                     f"{result['skipped']} skipped")
        for v in result["violations"][:5]:
            lines.append(f"  violation: {v['inputs']} -> {v['observed']}")
    elif result["type"] == "kbounds":
        lines.append(f"k-liminf = {_fmt_val(result['k_liminf'])}, "
                     f"k-limsup = {_fmt_val(result['k_limsup'])}")
    elif result["type"] == "witness":
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
