"""Output checker: classifies each operation's outcome and verifies answers.

Runs after the timed loop, on the reports the loop kept.  The oracles here
read the normalized block structure directly and never call the means, so
they are independent of the code they check:

* exact ``eval`` answers: ``arith`` is the mean of the finite points, ``lis``
  the midpoint of the accumulation extremes read from block anchors and
  ends, ``avg`` on a set with intervals the length-weighted midpoint;
* ``round`` under ``arith``/``avg``: the defect verdict equals the witness
  verdict;
* ``eval --mean iso`` on a single geometric sequence lies within 2*tol of
  its anchor (an exact answer must equal it);
* ``sweep-laws``: no violation of shift or self-shift invariance, the two
  laws the acceptance suite guarantees.

A failure is an exception escaping the public call, a failed check, an
unexpected exit code, or ``eval``/``kbounds`` calling the mean undefined
(or its dimensions incomparable) for an input that the structural domain
check below places inside the mean's domain.  Only one such failure is the
known defect kept in the baseline: the ISO ladder reporting "no convergence
after N ladder steps" on a tower operand or on a union of sequences whose
points do not come in lockstep (``seq2:mixed``: ratios or |scales|
differ).  Every other in-domain undefined, on a single sequence or a
lockstep union too, is a failure that makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Optional

from workloads import cost_class

#: laws the acceptance suite guarantees for every mean
GUARANTEED_LAWS = ("shift-invariant", "self-shift-invariant")
#: the known defect: the ISO ladder's diagnostic, and the cost classes it hits
NON_CONVERGENCE = re.compile(r"no convergence after \d+ ladder steps")
NON_CONVERGING_CLASSES = ("tower2", "tower2x2", "tower3", "tower3x2", "seq2:mixed")


@dataclass(frozen=True)
class Outcome:
    definite: bool
    failure: Optional[str] = None  # None, or why the operation failed
    #: the failure is the known non-converging ISO ladder, not a wrong answer
    known_defect: bool = False
    #: an oracle compared the answer
    oracle: bool = False


def _kinds(h) -> set[str]:
    return {type(b).__name__ for b in h.blocks}


def in_domain(mean: str, h) -> bool:
    """Structural domain check, read from the block kinds alone."""
    kinds = _kinds(h)
    finite = kinds == {"Finite"}
    perfect = bool(kinds & {"Interval", "Cantor"})
    if mean == "arith":
        return finite
    if mean == "lis":
        return not finite
    if mean in ("acc", "iso"):
        return not perfect
    if mean == "avg":
        return perfect or finite
    raise ValueError(f"unknown mean {mean}")


def _witness_domain(h) -> bool:
    return in_domain("iso", h) and _kinds(h) != {"Finite"}


def _q(v: dict) -> Q:
    return Q(int(v["num"]), int(v["den"]))


def _tower_sum(r: Q, k: int) -> Q:
    return r * (1 - r**k) / (1 - r)


def _acc_extremes(h):
    """(inf, sup) of the accumulation points, from anchors and block ends."""
    pts = []
    for b in h.blocks:
        kind = type(b).__name__
        if kind == "GeomSeq":
            pts.append(b.anchor)
        elif kind == "Tower":
            pts.append(b.anchor)
            pts.append(b.anchor + b.scale * _tower_sum(b.ratio, b.level - 1))
        elif kind in ("Interval", "Cantor"):
            pts += [b.lo, b.hi]
    return min(pts), max(pts)


def _eval_oracle(mean: str, h, result: dict) -> tuple[bool, Optional[str]]:
    """(an oracle applies, the mismatch it found or None)."""
    kinds = _kinds(h)
    status = result.get("status")
    if mean == "iso":
        if len(h.blocks) != 1 or kinds != {"GeomSeq"}:
            return False, None
        anchor = h.blocks[0].anchor
        if status == "exact":
            got = _q(result["value"])
            return True, (f"iso mean {got} != the anchor {anchor}" if got != anchor else None)
        if status != "approx":
            return True, f"iso mean {status} on a single sequence"
        value, tol = float(result["value"]["approx"]), float(result["value"]["tol"])
        if abs(value - float(anchor)) > 2 * tol:
            return True, f"iso mean {value} not within 2*tol of the anchor {anchor}"
        return True, None
    if status != "exact":
        return False, None
    got = _q(result["value"])
    want = None
    if mean == "arith":
        pts = sorted({p for b in h.blocks for p in b.points})
        want = sum(pts, Q(0)) / len(pts)
    elif mean == "lis":
        lo, hi = _acc_extremes(h)
        want = (lo + hi) / 2
    elif mean == "avg" and "Interval" in kinds:
        ivs = [b for b in h.blocks if type(b).__name__ == "Interval"]
        total = sum((b.hi - b.lo for b in ivs), Q(0))
        want = sum((b.hi - b.lo) * (b.lo + b.hi) / 2 for b in ivs) / total
    if want is None:
        return False, None
    return True, (f"{mean} mean {got} != oracle {want}" if got != want else None)


def _non_convergence(mean: str, h, report: dict) -> bool:
    """The known ISO defect: no convergence on a tower or a non-lockstep union."""
    return (mean == "iso" and cost_class(h) in NON_CONVERGING_CLASSES
            and any(NON_CONVERGENCE.search(d) for d in report["diagnostics"]))


def _decided(verdict: Optional[dict]) -> bool:
    return verdict is not None and verdict["answer"] in ("YES", "NO")


def query_outcome(query, sets, code: Optional[int], report: Optional[dict],
                  error: Optional[str]) -> Outcome:
    """Classify one query's result; ``sets`` are its normalized operands."""
    if error is not None:
        return Outcome(False, f"exception {error}")
    if code not in (0, 3):
        return Outcome(False, f"exit code {code}: {report['diagnostics']}")
    cmd, mean = query.command, query.mean
    result = report["result"]
    outside = any(not in_domain(mean, h) for h in sets)

    if cmd in ("eval", "kbounds"):
        if code == 3:
            if outside:
                return Outcome(True)
            return Outcome(False, f"{cmd}: mean undefined inside its domain: "
                                  f"{report['diagnostics']}",
                           known_defect=_non_convergence(mean, sets[0], report))
        if outside:
            return Outcome(False, f"{cmd}: answered for an input outside Dom({mean})")
        if cmd == "kbounds":
            return Outcome(result["k_liminf"]["status"] != "undefined"
                           and result["k_limsup"]["status"] != "undefined")
        applied, mismatch = _eval_oracle(mean, sets[0], result)
        return Outcome(mismatch is None, mismatch, oracle=applied)

    if cmd == "round":
        if code == 3:
            return Outcome(outside)
        if mean not in ("arith", "avg"):
            return Outcome(_decided(result["verdict"]))
        verdict, witness = result["verdict"]["answer"], result["witness_verdict"]["answer"]
        if verdict != witness:
            return Outcome(False, f"round {mean}: verdict {verdict} != witness {witness}",
                           oracle=True)
        return Outcome(_decided(result["verdict"]), oracle=True)

    if cmd == "classify":
        if code == 3:
            return Outcome(outside)
        return Outcome(all(v is None or _decided(v) for v in result["bundle"].values()))

    if cmd in ("disjoint", "weigh"):
        if code == 3:
            return Outcome(cmd == "weigh" and outside)
        return Outcome(_decided(result))

    if cmd == "witness":
        if code == 3:
            return Outcome(not _witness_domain(sets[0]))
        return Outcome(True)
    raise ValueError(f"unknown command {cmd}")


def law_failures(report) -> list[str]:
    """Violations of the guaranteed laws in one check_law report."""
    if report.law.value not in GUARANTEED_LAWS:
        return []
    return [f"{report.mean.value}/{report.law.value} violated: {v.inputs} -> {v.observed}"
            for v in report.violations]


def query_digest(results) -> str:
    """sha256 over every (exit code, JSON report) of one pass, in order."""
    h = hashlib.sha256()
    for code, report, error in results:
        h.update(json.dumps([code, report, error], sort_keys=True).encode())
    return h.hexdigest()


def law_digest(reports) -> str:
    """sha256 over the per-(mean, law) trial, skip and violation counts."""
    h = hashlib.sha256()
    for rep, error in reports:
        row = (error,) if rep is None else (
            rep.mean.value, rep.law.value, rep.trials, rep.skipped, len(rep.violations))
        h.update(json.dumps(row).encode())
    return h.hexdigest()
