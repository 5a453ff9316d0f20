"""Differential tests: the id-based thread lookups of `seqtypes.trivialize`
against the Edge-keyed versions kept in `reference_threads`.

`build_relabelling` reads every thread through `ThreadAnalysis` id
accessors; the reference builds an `ArgEdge`/`RightEdge`/`LeftEdge` key per
lookup.  Both must give the same relabelling, read in the reference's
three-dict form, on the 500 hybrid acceptance derivations and on the wide
family.  `residual_thread` is compared on every step of the collapsing
strategy, for every negative left arc of the redex towers.
"""

from __future__ import annotations

from seqtypes.corpus import tower_instances
from seqtypes.threads import NEG, ThreadAnalysis
from seqtypes.trivialize import (
    assign_track_values,
    build_relabelling,
    consumption_closure,
    residual_thread,
    run_collapsing_strategy,
)

import reference_threads
from reference_relabelling import as_dicts
from test_threads_differential import CORPUS_SEED, hybrid_operables, wide_operables


def assert_same_relabelling(op) -> None:
    analysis = ThreadAnalysis(op)
    classes = consumption_closure(analysis)
    values = assign_track_values(analysis, classes)
    new = build_relabelling(analysis, classes, values)
    assert as_dicts(op.checked, new) == reference_threads.build_relabelling(
        analysis, classes, values
    )


def test_hybrid_corpus_relabelling_matches_reference():
    ops = hybrid_operables()
    assert len(ops) == 500
    for op in ops:
        assert_same_relabelling(op)


def test_wide_family_relabelling_matches_reference():
    for op in wide_operables():
        assert_same_relabelling(op)


def test_tower_residual_threads_match_reference(monkeypatch):
    compared = []

    def both(analysis, maps, types, new_analysis, tid):
        new = residual_thread(analysis, maps, types, new_analysis, tid)
        ref = reference_threads.residual_thread(analysis, maps, types, new_analysis, tid)
        assert new == ref, (analysis.referent(tid), new, ref)
        compared.append(new)
        return new

    # the strategy looks `residual_thread` up in its module at each step
    monkeypatch.setitem(run_collapsing_strategy.__globals__, "residual_thread", both)
    arcs = 0
    for op in tower_instances(CORPUS_SEED + 6, 50):
        for arc in ThreadAnalysis(op).consumption():
            if arc.left_polarity == NEG:
                run_collapsing_strategy(op, arc)
                arcs += 1
    assert arcs >= 50
    # both kinds of outcome occur: a residual thread, and none
    assert None in compared and any(t is not None for t in compared)
