"""Differential tests: the thread analysis against the reference on the
inputs its left-block arithmetic depends on.

`ThreadAnalysis` stores only each axiom's own left block; every other left
block is a run of copies whose offsets come from sums of block sizes per
(node, variable) and from the binder's axioms below the node.  Shadowed
binders, one name both free and bound, and deep nests whose entries hold
many axioms are the cases where those sums and orders differ from the
acceptance corpora, none of which shadows a binder or reuses a free name.
Each derivation is compared as built and under S_h relabellings.
"""

from __future__ import annotations

import random

import pytest

from seqtypes.derivations import check_derivation
from seqtypes.reduction import make_operable
from seqtypes.trivialize import random_relabelling, reset_derivation

from samples import make_bound_then_free, make_free_then_bound, make_nested, make_shadowed_redex
from test_threads_differential import CORPUS_SEED, assert_same_analysis

RELABELLINGS = 3


def assert_same_under_relabellings(deriv, seed: int) -> None:
    rng = random.Random(seed)
    base = check_derivation(deriv)
    assert_same_analysis(make_operable(base), rng)
    for _ in range(RELABELLINGS):
        hybrid = reset_derivation(base, random_relabelling(base, rng), flavor="Sh").checked
        assert_same_analysis(make_operable(hybrid), rng)


def test_shadowed_binder_matches_reference():
    assert_same_under_relabellings(make_shadowed_redex(), CORPUS_SEED + 10)


@pytest.mark.parametrize("make", [make_bound_then_free, make_free_then_bound])
def test_a_name_both_free_and_bound_matches_reference(make):
    assert_same_under_relabellings(make(), CORPUS_SEED + 11)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 40])
def test_deep_nesting_matches_reference(n):
    assert_same_under_relabellings(make_nested(n), CORPUS_SEED + 12 + n)
