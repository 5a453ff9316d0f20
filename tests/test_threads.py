from __future__ import annotations

import tracemalloc

import pytest

from seqtypes.derivations import AxNode, Derivation, check_derivation
from seqtypes.positions import EPS
from seqtypes.reduction import make_operable
from seqtypes.stypes import SAtom
from seqtypes.terms import parse_term
from seqtypes.threads import (
    NEG,
    POS,
    ArgEdge,
    LeftEdge,
    RightEdge,
    ThreadAnalysis,
    dot_export,
    edge_label,
    text_report,
)

from samples import brothers_operable, make_nested, make_self_app, make_wide


@pytest.fixture(scope="module")
def brothers():
    return ThreadAnalysis(brothers_operable())


@pytest.fixture(scope="module")
def self_app():
    return ThreadAnalysis(make_operable(check_derivation(make_self_app())))


def colored_threads(analysis):
    """The six threads the figure colors: 8, 9 (red/blue), 2, 7, 3, 5."""
    return {
        8: analysis.thread_of(RightEdge((1,), (8,))),
        9: analysis.thread_of(RightEdge((1,), (9,))),
        2: analysis.thread_of(RightEdge((1, 6), (1, 2))),
        7: analysis.thread_of(RightEdge((1, 6), (1, 7))),
        3: analysis.thread_of(ArgEdge((3,))),
        5: analysis.thread_of(ArgEdge((5,))),
    }


def test_brothers_mutable_edges_include_colored_occurrences(brothers):
    edges = set(brothers.edges)
    # red and blue occurrences of 8
    assert RightEdge((1,), (8,)) in edges
    assert RightEdge((1, 1, 1, 0, 0, 1), (1, 8)) in edges
    assert LeftEdge((1, 1, 1, 0, 0, 1), "x", (5, 1, 8)) in edges
    assert RightEdge((1, 1), (5, 1, 8)) in edges
    # purple occurrences of 2 and 7, orange argument tracks 3 and 5
    assert RightEdge((1, 6, 1), (1, 1, 2)) in edges
    assert RightEdge((1, 6), (1, 7)) in edges
    assert ArgEdge((3,)) in edges and ArgEdge((5,)) in edges


def test_single_axiom_edge():
    deriv = Derivation(parse_term("x"), "S", {EPS: AxNode(5, SAtom("o"))})
    analysis = ThreadAnalysis(make_operable(check_derivation(deriv)))
    assert analysis.edges == [LeftEdge(EPS, "x", (5,))]
    assert len(analysis.threads) == 1
    assert analysis.threads[0].kind == "axiom"


def test_self_app_edge_count_matches_hand_enumeration(self_app):
    assert len(self_app.edges) == 27
    assert len(self_app.threads) == 10


def test_brothers_colored_threads(brothers):
    tids = colored_threads(brothers)
    assert len(set(tids.values())) == 6
    # the 8-thread joins the red (positive) and blue (negative) occurrences
    t8 = brothers.thread(tids[8])
    assert RightEdge((1, 1, 1, 0, 0, 1), (1, 8)) in t8.edges
    assert LeftEdge((1, 1, 1, 0, 0, 1), "x", (5, 1, 8)) in t8.edges
    assert t8.label == 8
    assert brothers.polarity(RightEdge((1,), (8,))) == POS
    assert brothers.polarity(RightEdge((1, 1), (5, 1, 8))) == NEG
    assert brothers.thread(tids[3]).kind == "argument"
    assert brothers.thread(tids[2]).kind == "inner"


def test_label_coherence_and_two_maximal_chains(brothers, self_app):
    for analysis in (brothers, self_app):
        for thread in analysis.threads:
            assert {edge_label(e) for e in thread.edges} == {thread.label}
            tops = {analysis.highest_ascendant(e) for e in thread.edges}
            tops -= {e for e in tops if isinstance(e, ArgEdge)}
            assert len(tops) <= 2
            by_pol = {}
            for top in tops:
                by_pol.setdefault(analysis.polarity(top), []).append(top)
            assert all(len(v) == 1 for v in by_pol.values())


def test_any_arg_edge_is_positive(brothers):
    for thread in brothers.threads:
        for e in thread.edges:
            if isinstance(e, ArgEdge):
                assert brothers.polarity(e) == POS


def test_brothers_thread_ad(brothers):
    tids = colored_threads(brothers)
    assert brothers.thread_ad(tids[8]) == 0
    assert brothers.thread_ad(tids[9]) == 0
    assert brothers.thread_ad(tids[3]) == 1
    axiom_thread = brothers.thread_of(LeftEdge(EPS, "b", (4,)))
    with pytest.raises(ValueError):
        brothers.thread_ad(axiom_thread)


def test_brothers_consumption_arcs(brothers):
    tids = colored_threads(brothers)
    arcs = brothers.consumption()
    total = 0
    for a in brothers.checked.app_positions():
        total += len(brothers.checked.left_seq(a).mutable_positions)
    assert len(arcs) == total == 8
    colored = {v for v in tids.values()}
    among = {
        (arc.left, arc.left_polarity, arc.pos, arc.right, arc.right_polarity)
        for arc in arcs
        if arc.left in colored and arc.right in colored
    }
    assert among == {
        (tids[8], NEG, (1,), tids[2], POS),
        (tids[9], NEG, (1,), tids[7], POS),
        (tids[8], POS, EPS, tids[3], POS),
        (tids[9], POS, EPS, tids[5], POS),
    }


def test_self_app_consumption(self_app):
    arcs = self_app.consumption()
    assert len(arcs) == 3
    for arc in arcs:
        assert arc.left_polarity == POS
        assert self_app.thread(arc.right).kind == "argument"
        assert arc.pos == (0,)


def test_brother_pairs(brothers):
    tids = colored_threads(brothers)
    assert brothers.brothers(tids[8], tids[9])
    assert brothers.brothers(tids[3], tids[5])
    assert brothers.brothers(tids[2], tids[7])
    assert not brothers.brothers(tids[8], tids[2])
    assert not brothers.brothers(tids[8], tids[8])
    ax1 = brothers.thread_of(LeftEdge(EPS, "b", (4,)))
    ax2 = brothers.thread_of(LeftEdge(EPS, "z", (4,)))
    assert brothers.brothers(ax1, ax2)  # axiom threads are all pairwise brothers


def test_axiom_thread_faces_argument_thread(brothers):
    # the x-axiom thread is left-consumed negatively against the argument
    # thread of the (a x) premise
    ax_thread = brothers.thread_of(RightEdge((1, 1), (5,)))
    assert brothers.thread(ax_thread).kind == "axiom"
    arcs = [arc for arc in brothers.consumption() if arc.left == ax_thread]
    assert len(arcs) == 1
    assert arcs[0].left_polarity == NEG
    assert brothers.thread(arcs[0].right).kind == "argument"
    assert arcs[0].right == brothers.arg_thread((1, 6))


def test_no_brother_chain(brothers, self_app):
    assert brothers.find_brother_chain() is None
    assert self_app.find_brother_chain() is None


def test_uniqueness_and_monotonicity(brothers, self_app):
    for analysis in (brothers, self_app):
        assert analysis.check_uniqueness_of_consumption()
        assert analysis.check_monotonicity()


def test_brothers_preserved_under_other_interface(brothers):
    # brotherhood does not depend on the interface
    other = ThreadAnalysis(make_operable(brothers.checked))
    tids_a = colored_threads(brothers)
    tids_b = colored_threads(other)
    for i in (8, 9, 2, 7, 3, 5):
        for j in (8, 9, 2, 7, 3, 5):
            assert brothers.brothers(tids_a[i], tids_a[j]) == other.brothers(
                tids_b[i], tids_b[j]
            )


def test_reports(brothers):
    dot = dot_export(brothers)
    assert dot.startswith("digraph")
    assert "t0" in dot
    report = text_report(brothers)
    assert "thread t0" in report
    assert "->" in report


def test_non_axiom_brothers_share_applicative_depth(brothers, self_app):
    for analysis in (brothers, self_app):
        for t1 in analysis.threads:
            for t2 in analysis.threads:
                if t1.kind == "axiom" or t2.kind == "axiom":
                    continue
                if analysis.brothers(t1.id, t2.id):
                    assert analysis.thread_ad(t1.id) == analysis.thread_ad(t2.id)


def test_axiom_threads_occur_at_source_roots(brothers, self_app):
    # every non-referent occurrence of an axiom thread is a single-letter
    # edge (the root of an arrow source or a context entry)
    for analysis in (brothers, self_app):
        for thread in analysis.threads:
            if thread.kind != "axiom":
                continue
            for e in thread.edges:
                if isinstance(e, RightEdge):
                    assert len(e.inner) == 1 or all(k == 1 for k in e.inner[:-1])
                if isinstance(e, LeftEdge):
                    assert len(e.inner) == 1


def test_edges_and_threads_slice_into_lists():
    analysis = ThreadAnalysis(make_operable(check_derivation(make_wide(2))))
    edges, threads = list(analysis.edges), list(analysis.threads)
    assert analysis.edges[0:2] == edges[0:2]
    assert analysis.edges[-3::-2] == edges[-3::-2]
    assert analysis.threads[:1] == threads[:1]
    assert analysis.threads[5:2] == []


def test_deep_nesting_analysis_stores_no_copied_blocks():
    """v (v (... u)) at n = 1,000 has 1,006,001 edges, all but a few
    thousand of them copies of an axiom's own left block; the analysis
    stores none of the copies, so its memory is linear in the derivation."""
    op = make_operable(check_derivation(make_nested(1000)))
    tracemalloc.start()
    try:
        analysis = ThreadAnalysis(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(analysis.edges) == 1_006_001
    assert peak < 16 * 2**20


def test_thread_sizes_count_the_stored_edges():
    """A size counts each copy of an own-block edge without listing the
    thread's members."""
    for ops in (make_nested(40), make_wide(5)):
        analysis = ThreadAnalysis(make_operable(check_derivation(ops)))
        threads = analysis.threads
        assert [analysis.thread_size(t) for t in range(len(threads))] == [
            len(thread.edges) for thread in threads
        ]
    analysis = ThreadAnalysis(make_operable(check_derivation(make_nested(1000))))
    sizes = [analysis.thread_size(t) for t in range(len(analysis.threads))]
    assert sum(sizes) == 1_006_001
    assert "_members" not in vars(analysis)
