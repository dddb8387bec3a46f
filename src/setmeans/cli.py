"""Command-line driver and JSON report emitter.

Exit codes: 0 success, 2 parse/validation/usage error, 3 domain error,
4 inconclusive result under --strict.  Reports are deterministic: the same
argv and seed produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction as Q

from . import __version__
from .classify import (
    Verdict,
    build_iso_witness_staged,
    classify_bundle,
    k_disjoint,
    witness_stage_ratios,
)
from .dsl import parse, render_set
from .errors import (
    CutNotRepresentable,
    DomainViolation,
    EmptyResult,
    IncomparableDimensions,
    IntersectionNotRepresentable,
    MembershipUndecided,
    ParseError,
    SetMeansError,
    ValidationError,
)
from .laws import LawKind, check_law, gen_corpus
from .means import LadderConfig, MeanKind, MeanValue, k_bounds, mean_of
from .roundness import round_pass
from .sets import normalize
from .weigh import WeightKind, defect_curve, equal_weight

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INCONCLUSIVE = 4


def _q_json(q: Q) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


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
    return {
        "type": "curve",
        "samples": [{"x": _q_json(x), "defect": _mean_json(d)} for x, d in curve.samples],
        "trend": curve.trend.value,
        "slope": None if curve.slope_estimate is None else _float_str(curve.slope_estimate),
    }


def _config(args) -> LadderConfig:
    return LadderConfig(
        eps0=Q(args.ladder_start),
        shrink=Q(1, 2),
        max_steps=args.ladder_steps,
        tol=args.tol,
    )


def _add_common(sub):
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--strict", action="store_true",
                     help="treat INCONCLUSIVE results as failures (exit 4)")
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--ladder-start", default="1/2",
                     help="first neighborhood radius of the refinement ladder")
    sub.add_argument("--ladder-steps", type=int, default=60)
    sub.add_argument("--xmax", type=int, default=4,
                     help="largest translate exponent for sampling grids")
    sub.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
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
    s.add_argument("--profile", default="mixed",
                   choices=["finite", "sequences", "towers", "intervals", "cantor", "mixed"])
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


def _norm(text: str):
    return normalize(parse(text))


def run_command(argv) -> tuple[int, dict]:
    """Execute one CLI invocation and return (exit code, report)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_USAGE if exc.code not in (0, None) else 0,
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
    except ParseError as exc:
        report["diagnostics"].append(
            f"parse error: {exc} (expected {', '.join(exc.expected)})")
        return EXIT_USAGE, report
    except ValidationError as exc:
        report["diagnostics"].append(f"validation error: {exc}")
        return EXIT_USAGE, report
    except (DomainViolation, EmptyResult, CutNotRepresentable, MembershipUndecided,
            IntersectionNotRepresentable, IncomparableDimensions) as exc:
        report["diagnostics"].append(f"domain error: {type(exc).__name__}: {exc}")
        return EXIT_DOMAIN, report
    except SetMeansError as exc:
        report["diagnostics"].append(f"error: {exc}")
        return EXIT_DOMAIN, report
    if code == EXIT_OK and args.strict and _is_inconclusive(report["result"]):
        report["diagnostics"].append("strict mode: result is INCONCLUSIVE")
        return EXIT_INCONCLUSIVE, report
    return code, report


def _is_inconclusive(result) -> bool:
    if not isinstance(result, dict):
        return False
    if result.get("answer") == "INCONCLUSIVE":
        return True
    if result.get("trend") == "INCONCLUSIVE":
        return True
    bundle = result.get("bundle")
    if bundle:
        return any(v is not None and v.get("answer") == "INCONCLUSIVE"
                   for v in bundle.values())
    verdict = result.get("verdict")
    if isinstance(verdict, dict):
        return verdict.get("answer") == "INCONCLUSIVE"
    return False


def _dispatch(args, report) -> int:
    cfg = _config(args)
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
        h1, h2 = _norm(args.h1), _norm(args.h2)
        v = equal_weight(h1, h2, MeanKind(args.mean), WeightKind(args.kind), cfg)
        curve = defect_curve(h1, h2, MeanKind(args.mean), cfg, xmax=args.xmax)
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
            "skipped": list(kb.skipped),
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
    if result is None:
        pass
    elif result["type"] == "mean":
        st = result["status"]
        if st == "exact":
            lines.append(f"{result['kind']} mean = "
                         f"{result['value']['num']}/{result['value']['den']}")
        elif st == "approx":
            lines.append(f"{result['kind']} mean ~ {result['value']['approx']} "
                         f"(tol {result['value']['tol']})")
        else:
            lines.append(f"{result['kind']} mean undefined: {result['reason']}")
    elif result["type"] == "verdict" and "bundle" in result:
        for name, v in result["bundle"].items():
            if v is None:
                lines.append(f"{name}: undefined")
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
        ratio_bits = [f"{r['ratio']['num']}/{r['ratio']['den']}" for r in result["ratios"]]
        lines.append("stage ratios: " + ", ".join(ratio_bits))
    lines.extend(report["diagnostics"])
    return lines


def _fmt_val(mj) -> str:
    if mj["status"] == "exact":
        num, den = mj["value"]["num"], mj["value"]["den"]
        return num if den == "1" else f"{num}/{den}"
    if mj["status"] == "approx":
        return f"~{mj['value']['approx']}"
    return f"undefined({mj['reason']})"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    code, report = run_command(argv)
    json_mode = "--json" in argv
    if json_mode:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        for line in _human_lines(report):
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
