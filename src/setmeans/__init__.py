"""Means on infinite bounded subsets of the reals.

An exact symbolic algebra of bounded sets (finite point sets, geometric
sequences, layered towers, intervals, self-similar Cantor blocks) with five
set means on top: the arithmetic mean of finite sets, the midpoint of the
accumulation bounds, the mean of the top derived level, the limit mean of
the isolated points, and the Hausdorff-measure average.  The higher layers
classify small/big sets, test equal-weight relations, and decide roundness.
"""

__version__ = "0.3.0"

from .blocks import Cantor, Finite, GeomSeq, Interval, Q, Tower
from .classify import (
    Answer,
    Method,
    Verdict,
    build_iso_witness,
    build_iso_witness_staged,
    comparable,
    is_big_for,
    is_small_for,
    k_disjoint,
    witness_stage_ratios,
)
from .dsl import parse, render, render_set
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
from .laws import LawKind, LawReport, check_law, gen_corpus
from .means import (
    DEFAULT_CONFIG,
    KBounds,
    LadderConfig,
    MeanKind,
    MeanValue,
    arith_mean,
    k_bounds,
    mean_of,
)
from .roundness import RoundReport, round_defect, round_witness
from .sets import (
    BlockSet,
    Bounds,
    CutAbove,
    CutBelow,
    Leaf,
    SetExpr,
    Translate,
    Union,
    bounds,
    contains,
    cut_set,
    derived_set,
    diameter,
    intersect,
    isolated_outside,
    level,
    normalize,
    normalize_blocks,
    reflect_set,
    translate_set,
    union_sets,
)
from .weigh import (
    DefectCurve,
    Trend,
    WeightKind,
    defect_curve,
    equal_weight,
    weight_defect,
)

__all__ = [
    "__version__",
    "Answer", "BlockSet", "Bounds", "Cantor", "CutAbove", "CutBelow",
    "CutNotRepresentable", "DEFAULT_CONFIG", "DefectCurve", "DomainViolation",
    "EmptyResult", "Finite", "GeomSeq", "IncomparableDimensions",
    "Interval", "IntersectionNotRepresentable", "KBounds", "LadderConfig",
    "LawKind", "LawReport", "Leaf", "MeanKind", "MeanValue",
    "MembershipUndecided", "Method", "ParseError", "Q", "RoundReport",
    "SetExpr", "SetMeansError", "Tower", "Translate", "Trend", "Union",
    "ValidationError", "Verdict", "WeightKind",
    "arith_mean", "bounds", "build_iso_witness", "build_iso_witness_staged",
    "check_law", "comparable", "contains", "cut_set", "defect_curve",
    "derived_set", "diameter", "equal_weight", "gen_corpus", "intersect",
    "is_big_for", "is_small_for", "isolated_outside", "k_bounds",
    "k_disjoint", "level", "mean_of", "normalize", "normalize_blocks",
    "parse", "reflect_set", "render", "render_set", "round_defect",
    "round_witness", "translate_set", "union_sets", "weight_defect",
    "witness_stage_ratios",
]
