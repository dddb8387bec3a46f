"""Fuzzing normalize -> each mean over the seeded corpus generator.

Every outcome must be a value, a typed SetMeansError, or "undefined" for a
set outside the mean's structural domain, read off the block kinds alone.
"""

from hypothesis import given, strategies as st

from setmeans import (
    Cantor,
    CutAbove,
    CutBelow,
    Interval,
    MeanKind,
    SetMeansError,
    Translate,
    gen_corpus,
    mean_of,
    normalize,
)
from setmeans.laws import PROFILES

WRAPPERS = {"shift": Translate, "below": CutBelow, "above": CutAbove}


def in_structural_domain(kind: MeanKind, h) -> bool:
    perfect = any(isinstance(b, (Interval, Cantor)) for b in h.blocks)
    if kind is MeanKind.ARITH:
        return h.is_finite
    if kind is MeanKind.LIS:
        return not h.is_finite
    if kind in (MeanKind.ACC, MeanKind.ISO):
        return not perfect
    # avg: positive measure at the top dimension, or a finite set
    return perfect or h.is_finite


@given(seed=st.integers(0, 10**6), profile=st.sampled_from(PROFILES),
       wrap=st.sampled_from([None, *WRAPPERS]),
       at=st.fractions(min_value=-20, max_value=20, max_denominator=16))
def test_each_mean_is_a_value_a_typed_error_or_outside_its_domain(seed, profile, wrap, at):
    e = gen_corpus(seed, 1, profile)[0]
    if wrap is not None:
        e = WRAPPERS[wrap](e, at)
    try:
        h = normalize(e)
    except SetMeansError:
        return
    for kind in MeanKind:
        try:
            v = mean_of(h, kind)
        except SetMeansError:
            continue
        assert v.is_defined == in_structural_domain(kind, h), (e, kind, v)
