"""The benchmark's three workloads: seeded operation lists.

Every input comes from ``gen_corpus`` plus the seeded query mixer below, so
the same seed always gives the same operations.  The program only ever sees
the generated argv lists (query workloads) or the generated corpus
(``sweep-laws``).

The mixer draws operands by cost class (``cost_class``) on a fixed schedule:
slot *i* of a profile always asks for the same class, and the seed only picks
which operand of that class fills it.  A query's cost is set mostly by its
class (a Cantor pair runs the dimension comparison, a tower runs the
ISO ladder to its step cap), so fixed quotas keep the mix of cheap and costly
queries, and with it the timings, the same from seed to seed.  The quotas
(``QUOTAS``) follow the frequencies ``gen_corpus`` itself produces, and all
three workloads use them.

Each workload is a fixed list of operations (one *pass*); the run repeats
whole passes, and every pass must produce the same reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("query-exact", "query-iso", "sweep-laws")

EXACT_COMMANDS = ("eval", "round", "kbounds", "classify", "disjoint", "weigh")
EXACT_MEANS = ("arith", "lis", "acc", "avg")
#: queries per (profile, command, mean) cell: 6 x 6 x 4 x 6 = 864 per pass
EXACT_PER_CELL = 6
#: class quotas per gen_corpus profile, in gen_corpus's own proportions
#: (class counts over seeds 1-20, 120 sets per profile).  Classes under 1%
#: of a profile round to none: seq2:lockstep in mixed (0.4%), and tower3x2,
#: unions of two level-3 towers (0.4% of towers; an ISO kbounds on one whose
#: towers converge takes about 20 s)
QUOTAS = {
    "finite": {"finite": 1},
    "sequences": {"seq1": 11, "seq2:lockstep": 1, "seq2:mixed": 10},
    "towers": {"tower2": 9, "tower2x2": 8, "tower3": 3},
    "intervals": {"interval": 1},
    "cantor": {"cantor:2/3": 5, "cantor:2/4": 5, "cantor:3/4": 5, "cantor:3/5": 5,
               "cantor2:2/3+2/4": 2, "cantor2:2/3+3/4": 2, "cantor2:2/3+3/5": 2,
               "cantor2:2/4+3/4": 2, "cantor2:2/4+3/5": 2, "cantor2:3/4+3/5": 2},
    "mixed": {"cantor:2/3": 6, "cantor:2/4": 6, "cantor:3/4": 6, "cantor:3/5": 6,
              "cantor2": 2, "finite": 15, "interval": 28, "seq1": 15, "seq2:mixed": 4,
              "tower2": 9, "tower2x2": 1, "tower3": 1},
}

ISO_COMMANDS = ("eval", "round", "kbounds", "classify", "disjoint", "witness")
ISO_PROFILES = ("sequences", "towers", "mixed")
#: queries per (profile, command) cell, weigh aside: 3 x 6 x 8 = 144 per pass
ISO_PER_CELL = 8
# One ISO weigh on a level-3 tower runs the non-converging ladder 30 times
# per defect curve and takes 10-21 s, which alone would exceed a run and make
# qps hinge on whether a seed drew one; two level-2 towers in one operand
# cost several seconds too.  Weigh operands are therefore drawn only from
# the classes with at most one level-2 tower (1-2 s per query on the towers
# profile, 0.1-0.7 s on sequence pairs), in the same proportions, and few of
# them come from the towers profile.  16 weigh queries per pass.
ISO_WEIGH_EXCLUDED = ("tower2x2", "tower3")
ISO_WEIGH_PER_PROFILE = {"sequences": 8, "towers": 2, "mixed": 6}

#: candidate operands drawn from gen_corpus per profile
POOL_SIZE = 120

LAW_MEANS = ("arith", "lis", "acc", "avg")
#: every (mean, law) pair is checked over this many corpora, each its own
#: draw from one seeded mixed pool.  The rare costly cases (a cut deep inside
#: a Cantor block, a cross-family dimension test) hang on particular pairs of
#: sets; a single shared corpus repeats its few such pairs in every check, so
#: its time would swing from seed to seed.  Three corpora put 12 checks
#: beyond p90 and still fit three passes in a 20 s run.
LAW_REPEATS = 3
LAW_CORPUS = 100
LAW_QUOTAS = QUOTAS["mixed"]
LAW_POOL = 2000


@dataclass(frozen=True)
class Query:
    """One CLI query: its argv and the operand texts the checker re-reads."""

    argv: tuple[str, ...]
    command: str
    mean: str
    operands: tuple[str, ...]


@dataclass(frozen=True)
class LawCheck:
    """One in-process ``check_law`` call over its own corpus."""

    mean: str
    law: str
    corpus: int


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    #: the sweep-laws corpora (SetExpr lists); empty for the query workloads
    corpora: list = field(default_factory=list)


def cost_class(h) -> str:
    """Cost class of a normalized set, from its block kinds."""
    kinds = [type(b).__name__ for b in h.blocks]
    families = {(b.pieces, b.ratio) for b in h.blocks if type(b).__name__ == "Cantor"}
    # Comparing two different Cantor dimensions costs milliseconds, except
    # against the one rational dimension, log 2 / log 4; so each family, and
    # each mix of families, is a class of its own.
    names = "+".join(sorted(f"{m}/{r.denominator}" for m, r in families))
    if len(families) >= 2:
        return f"cantor2:{names}"
    if families:
        return f"cantor:{names}"
    if "Interval" in kinds:
        return "interval"
    levels = [b.level for b in h.blocks if type(b).__name__ == "Tower"]
    if levels:
        if max(levels) >= 3:
            return "tower3" if sum(lv >= 3 for lv in levels) == 1 else "tower3x2"
        return "tower2" if len(levels) == 1 else "tower2x2"
    seqs = [b for b in h.blocks if type(b).__name__ == "GeomSeq"]
    if len(seqs) >= 2:
        # The ISO ladder settles when the sequences' points come in lockstep
        # (one ratio, one |scale|): each refinement step then admits points
        # of every sequence.  Otherwise it mostly runs to its step cap.
        lockstep = len({(b.ratio, abs(b.scale)) for b in seqs}) == 1
        return "seq2:lockstep" if lockstep else "seq2:mixed"
    return "seq1" if seqs else "finite"


def schedule(quotas: dict[str, int], n: int) -> list[str]:
    """n class slots in the quotas' proportions, each class spread evenly."""
    total = sum(quotas.values())
    exact = {c: q * n / total for c, q in quotas.items()}
    counts = {c: int(x) for c, x in exact.items()}
    for c in sorted(exact, key=lambda c: counts[c] - exact[c])[: n - sum(counts.values())]:
        counts[c] += 1
    slots = [((k + 0.5) / m, c) for c, m in counts.items() for k in range(m)]
    return [c for _, c in sorted(slots)]


class _Pool:
    """gen_corpus operands of one profile, grouped by cost class."""

    def __init__(self, sm, seed: int, profile: str, size: int = POOL_SIZE):
        self.exprs = sm.gen_corpus(seed, size, profile)
        self.texts = [sm.render(e) for e in self.exprs]
        self.by_class: dict[str, list[int]] = {}
        for i, e in enumerate(self.exprs):
            self.by_class.setdefault(cost_class(sm.normalize(e)), []).append(i)

    def members(self, cls: str) -> list[int]:
        """Indices in class ``cls``; ``cantor`` also takes every ``cantor:*``."""
        return sorted(i for c, ix in self.by_class.items()
                      if c == cls or c.startswith(cls + ":") for i in ix)

    def draw(self, rng: random.Random, cls: str, k: int) -> tuple[str, ...]:
        # a class this seed's pool lacks falls back to the whole pool
        members = self.members(cls)
        if len(members) < k:
            members = range(len(self.texts))
        return tuple(self.texts[i] for i in rng.sample(members, k))


def _argv(command: str, mean: str, operands, rng: random.Random) -> tuple[str, ...]:
    if command in ("eval", "round", "kbounds"):
        argv = [command, "--mean", mean, operands[0]]
    elif command == "classify":
        argv = [command, "--mean", mean, "--of", operands[0], operands[1]]
    elif command == "disjoint":
        argv = [command, "--mean", mean]
        if rng.random() < 0.5:
            argv.append("--weak")
        argv += [operands[0], operands[1]]
    elif command == "weigh":
        kind = rng.choice(("bound", "limit", "equality"))
        argv = [command, "--mean", mean, "--kind", kind, operands[0], operands[1]]
    elif command == "witness":
        argv = [command, rng.choice(("--iso-small", "--iso-big")), operands[0]]
    else:
        raise ValueError(f"unknown command {command}")
    return tuple(argv) + ("--json",)


def _query(pool, rng, command, mean, cls) -> Query:
    operands = pool.draw(rng, cls, 2 if command in ("classify", "disjoint", "weigh") else 1)
    return Query(_argv(command, mean, operands, rng), command, mean, operands)


def _query_exact(sm, seed: int, rng: random.Random) -> list[Query]:
    ops = []
    for profile, quotas in QUOTAS.items():
        pool = _Pool(sm, seed, profile)
        cells = [(c, m) for c in EXACT_COMMANDS for m in EXACT_MEANS]
        slots = iter(schedule(quotas, len(cells) * EXACT_PER_CELL))
        for command, mean in cells:
            for _ in range(EXACT_PER_CELL):
                ops.append(_query(pool, rng, command, mean, next(slots)))
    rng.shuffle(ops)
    return ops


def _query_iso(sm, seed: int, rng: random.Random) -> list[Query]:
    ops = []
    for profile in ISO_PROFILES:
        quotas = QUOTAS[profile]
        pool = _Pool(sm, seed, profile)
        slots = iter(schedule(quotas, len(ISO_COMMANDS) * ISO_PER_CELL))
        for command in ISO_COMMANDS:
            for _ in range(ISO_PER_CELL):
                ops.append(_query(pool, rng, command, "iso", next(slots)))
        weigh = {c: q for c, q in quotas.items() if c not in ISO_WEIGH_EXCLUDED}
        for cls in schedule(weigh, ISO_WEIGH_PER_PROFILE[profile]):
            ops.append(_query(pool, rng, "weigh", "iso", cls))
    rng.shuffle(ops)
    return ops


def _law_corpus(pool: _Pool, rng: random.Random) -> list:
    """100 distinct pool sets; position i always holds the same cost class."""
    slots = schedule(LAW_QUOTAS, LAW_CORPUS)
    picks = {}
    for cls in dict.fromkeys(slots):
        members = pool.members(cls)
        n = slots.count(cls)
        picks[cls] = iter(rng.sample(members if len(members) >= n else
                                     range(len(pool.exprs)), n))
    return [pool.exprs[next(picks[cls])] for cls in slots]


def build(sm, name: str, seed: int) -> Workload:
    """The workload's operation list for this seed; ``sm`` is the setmeans package."""
    rng = random.Random(f"{name}:{seed}")
    if name == "query-exact":
        return Workload(name, _query_exact(sm, seed, rng))
    if name == "query-iso":
        return Workload(name, _query_iso(sm, seed, rng))
    if name == "sweep-laws":
        pool = _Pool(sm, seed, "mixed", LAW_POOL)
        ops = [LawCheck(mean, law.value, i) for i, (_, mean, law) in enumerate(
            (k, m, lw) for k in range(LAW_REPEATS) for m in LAW_MEANS for lw in sm.LawKind)]
        return Workload(name, ops, [_law_corpus(pool, rng) for _ in ops])
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
