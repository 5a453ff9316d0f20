"""Differential tests: `stypes.relabel_type` against the three-step relabelling.

`reference_relabelling` keeps `Relabelling01`, `apply_relabelling` and
`_relabel_type` as they were.  `relabel_type` must build an equal type and
an equal mapping, and raise `RelabellingError` in exactly the cases where
they raise:

- on every axiom type of the 500 S acceptance derivations and of their S_h
  perturbations, with the new tracks `random_relabelling` draws;
- on every axiom type of the 500 hybrid derivations with random
  interfaces, the redex towers and the wide family, with the new tracks
  `build_relabelling` gives on the way to trivialization;
- on hypothesis-generated types with drawn tracks, some missing, some
  below 2, some shared by siblings, plus entries off the type.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from seqtypes.corpus import sr_corpus, tower_instances
from seqtypes.derivations import AxNode, CheckedDerivation
from seqtypes.stypes import RelabellingError, SType, relabel_type
from seqtypes.threads import ThreadAnalysis
from seqtypes.trivialize import (
    Relabelling,
    assign_track_values,
    build_relabelling,
    consumption_closure,
    random_relabelling,
    reset_derivation,
)

from reference_relabelling import Relabelling01, _relabel_type, apply_relabelling, as_dicts
from test_stypes import stypes_strategy
from test_threads_differential import CORPUS_SEED, hybrid_operables, wide_operables


def reference(t: SType, tracks: dict):
    """The old pipeline of `reset_derivation` on one axiom type."""
    _, phi = apply_relabelling(t.support, Relabelling01(tracks))
    return _relabel_type(t, phi), phi


def assert_same(t: SType, tracks: dict) -> bool:
    """Whether both raise; if neither does, the results must be equal."""
    try:
        expected = reference(t, tracks)
    except RelabellingError:
        expected = None
    try:
        got = relabel_type(t, tracks)
    except RelabellingError:
        got = None
    assert (got is None) == (expected is None), (t, tracks)
    if got is not None:
        assert got[0] == expected[0]
        assert got[1].mapping == expected[1].mapping
    return got is None


def assert_same_axioms(checked: CheckedDerivation, relab: Relabelling) -> None:
    axiom_types = as_dicts(checked, relab).axiom_types
    for a in checked.axiom_positions():
        node = checked.node(a)
        assert isinstance(node, AxNode)
        assert not assert_same(node.stype, axiom_types[a])


def test_random_relabellings_of_the_corpus_match_reference():
    rng = random.Random(CORPUS_SEED + 1)
    again = random.Random(CORPUS_SEED + 7)
    for checked in sr_corpus(CORPUS_SEED, 500, size=7, width=2):
        relab = random_relabelling(checked, rng)
        assert_same_axioms(checked, relab)
        hybrid = reset_derivation(checked, relab, flavor="Sh").checked
        assert_same_axioms(hybrid, random_relabelling(hybrid, again))


def test_trivializing_relabellings_match_reference():
    ops = hybrid_operables() + tower_instances(CORPUS_SEED + 3, 20) + wide_operables()
    for op in ops:
        analysis = ThreadAnalysis(op)
        classes = consumption_closure(analysis)
        values = assign_track_values(analysis, classes)
        assert_same_axioms(op.checked, build_relabelling(analysis, classes, values))


@settings(max_examples=300)
@given(stypes_strategy(), st.data())
def test_drawn_tracks_match_reference(t, data):
    # -1 leaves the position out; 0 and 1 are not mutable; siblings may clash
    drawn = [data.draw(st.integers(-1, 7)) for _ in t.mutable_positions]
    tracks = {c: k for c, k in zip(t.mutable_positions, drawn) if k >= 0}
    # no position of a drawn type starts with 99, so no entry here is a
    # sibling of one of its positions
    tracks.update({(99, k): k for k in data.draw(st.sets(st.integers(2, 9), max_size=3))})
    assert_same(t, tracks)
