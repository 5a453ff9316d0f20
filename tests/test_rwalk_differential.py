"""Differential tests: the single R-tree walker against the recursive walkers.

`reference_rwalk` keeps the recursive `check_R`, `_rtype_of_nodes`,
`enumerate_r_choices`, `reduce_R` and `hybridize`.  At every redex of the
collapses of the hybrid acceptance corpus and of the criterion-5 redex
towers, the versions built on `walk_R` must agree with them: the same
judgments and R-types, the same choice lists in the same order, equal
reducts for every choice and equal hybrid representatives.  The oracles
address R-nodes by paths of (kind, index) steps; `positional` and
`positional_choice` map them to the library's positions, where the step
(k, j) is the letter k + j and premise j the letter 2 + j.
"""

from __future__ import annotations

import random

import pytest

import seqtypes.derivations
import seqtypes.reduction
from seqtypes.corpus import sr_corpus, tower_instances
from seqtypes.derivations import (
    AbsNode,
    RAbsD,
    RAxD,
    RDerivation,
    check_derivation,
    check_R,
    check_R_types,
    collapse_derivation,
    rapp,
    walk_R,
)
from seqtypes.positions import Position
from seqtypes.reduction import ChoiceError, RChoice, enumerate_r_choices, hybridize, reduce_R
from seqtypes.stypes import RAtom, RType, rarrow
from seqtypes.terms import Abs, Var, parse_term, redexes
from seqtypes.trivialize import random_relabelling, reset_derivation

import reference_rwalk as ref
from samples import (
    make_brothers,
    make_self_app,
    make_shadowed_redex,
    make_tracked_redex,
    make_two_choice_redex,
)
from test_derived_reducts import count_calls

CORPUS_SEED = 20250809


def positional(path: ref.RPath) -> Position:
    """An oracle R-path as a position: the step (k, j) is the letter k + j."""
    return tuple(k + j for k, j in path)


def positional_choice(choice: RChoice) -> RChoice:
    """An oracle choice with positions, and premise j as the letter 2 + j."""
    return RChoice(choice.redex, {
        positional(site): {positional(p): 2 + j for p, j in assignment.items()}
        for site, assignment in choice.assignments.items()
    })


def corpus_collapses() -> list[RDerivation]:
    """The collapses of the 500 hybrid acceptance derivations."""
    rng = random.Random(CORPUS_SEED + 1)
    out = []
    for checked in sr_corpus(CORPUS_SEED, 500, size=7, width=2):
        hybrid = reset_derivation(checked, random_relabelling(checked, rng), flavor="Sh").checked
        out.append(collapse_derivation(hybrid))
    return out


def tower_collapses() -> list[RDerivation]:
    """The collapses of the criterion-5 redex towers and of the samples, one
    of which rebinds its redex variable inside the body."""
    samples = [make_two_choice_redex(), make_tracked_redex(), make_shadowed_redex(),
               make_brothers(), make_self_app()]
    checked = [op.checked for op in tower_instances(CORPUS_SEED + 5, 4)]
    checked += [check_derivation(d) for d in samples]
    return [collapse_derivation(c) for c in checked]


def grouped_redex(f_types: list[RType], g_types: list[RType], copies: int) -> RDerivation:
    """h ((\\x. f x (g x)) u), the redex `copies` times among h's premises.
    x has one axiom of each of `f_types` under f and of `g_types` under g,
    and u one premise for each.  f's axioms come first in position order,
    each group sorted by key, so equal-keyed axioms can be apart."""
    r, q = RAtom("r"), RAtom("q")
    f = rapp(RAxD(rarrow(f_types, rarrow([r], q))), [RAxD(t) for t in f_types])
    g = rapp(RAxD(rarrow(g_types, r)), [RAxD(t) for t in g_types])
    redex = rapp(RAbsD(rapp(f, [g])), [RAxD(t) for t in f_types + g_types])
    root = rapp(RAxD(rarrow([q] * copies, RAtom("s"))), [redex] * copies)
    return RDerivation(parse_term("h ((\\x. f x (g x)) u)"), root)


def grouped_redexes() -> list[RDerivation]:
    """Redexes whose axioms fall in two or three key groups, one of them
    with three axioms, interleaved in position order."""
    o, p = RAtom("o"), RAtom("p")
    arrow = rarrow([o], o)
    return [
        grouped_redex([o, p], [o, o], 2),
        grouped_redex([p, o, arrow], [o, p, o], 1),
        grouped_redex([arrow, arrow, o], [arrow, o], 2),
    ]


def assert_same_judgments(rd: RDerivation) -> None:
    judgment, types, _ = check_R_types(rd)
    assert judgment == check_R(rd) == ref.check_R(rd)
    assert types == {positional(p): t for p, t in ref._rtype_of_nodes(rd).items()}


def assert_same_reductions(rd: RDerivation) -> int:
    """Compare every observable at every redex; returns the reducts compared."""
    assert_same_judgments(rd)
    assert hybridize(rd) == ref.hybridize(rd)
    compared = 0
    for b in redexes(rd.term):
        choices, ref_choices = enumerate_r_choices(rd, b), ref.enumerate_r_choices(rd, b)
        assert choices == [positional_choice(c) for c in ref_choices], b
        for choice, ref_choice in zip(choices, ref_choices):
            got, want = reduce_R(rd, b, choice), ref.reduce_R(rd, b, ref_choice)
            assert (got.term, got.root) == (want.term, want.root), (b, choice)
            assert_same_judgments(got)
            assert hybridize(got) == ref.hybridize(got)
            compared += 1
    return compared


def test_hybrid_corpus_walks_match_reference():
    collapses = corpus_collapses()
    assert len(collapses) == 500
    assert sum(assert_same_reductions(rd) for rd in collapses) > 500


def test_towers_walks_match_reference():
    assert sum(assert_same_reductions(rd) for rd in tower_collapses()) > 4


def test_multi_group_redexes_match_reference():
    # per R-node: 3! * 1!, then 3! * 2! * 1!, then 3! * 2!; one choice per
    # combination of the nodes' assignments
    counts = [len(enumerate_r_choices(rd, (2,))) for rd in grouped_redexes()]
    assert counts == [6**2, 12, 12**2]
    assert sum(assert_same_reductions(rd) for rd in grouped_redexes()) == sum(counts)


def test_each_choice_has_its_own_dicts():
    choices = enumerate_r_choices(grouped_redexes()[0], (2,))
    inner = [d for choice in choices for d in choice.assignments.values()]
    assert len(inner) == 2 * len(choices)
    assert len({id(choice.assignments) for choice in choices}) == len(choices)
    assert len({id(d) for d in inner}) == len(inner)


def test_walk_R_is_iterative():
    """A chain of abstractions far deeper than the recursion limit."""
    depth = 5000
    term, node = Var("x"), RAxD(RAtom("o"))
    for _ in range(depth):
        term, node = Abs("y", term), RAbsD(node)
    items = list(walk_R(node, term))
    assert len(items) == depth + 1
    path, leaf, subj = items[-1]
    assert len(path) == depth
    assert leaf == RAxD(RAtom("o")) and subj == Var("x")


def test_walk_R_yields_the_hybrid_positions():
    """An R-node's position is its position in the hybrid representative,
    and the hybrid's collapse maps every position to itself."""
    for rd in corpus_collapses() + tower_collapses():
        hybrid = hybridize(rd)
        assert [a for a, _, _ in walk_R(rd.root, rd.term)] == sorted(hybrid.nodes)
        collapsed, positions = check_derivation(hybrid).collapse
        assert collapsed == rd
        assert all(a == r for a, r in positions.items())


def test_the_binder_index_is_the_rigid_one_of_the_hybrid():
    """The axioms `check_R_types` finds bound by each abstraction are those
    the rigid checker binds to it in the hybrid representative."""
    towers = [op.checked for op in tower_instances(CORPUS_SEED + 5, 20)]
    collapses = corpus_collapses() + [collapse_derivation(c) for c in towers]
    collapses.append(collapse_derivation(check_derivation(make_shadowed_redex())))
    compared = 0
    for rd in collapses:
        _, _, bound = check_R_types(rd)
        rigid = check_derivation(hybridize(rd))
        abstractions = [a for a in rigid.preorder if isinstance(rigid.node(a), AbsNode)]
        assert sorted(bound) == abstractions
        for a in abstractions:
            assert bound[a] == sorted(rigid.bound_by(a).values()), a
        compared += len(abstractions)
    assert compared == 1395


def test_choices_and_reducts_walk_the_R_tree_once_and_twice(monkeypatch):
    """`enumerate_r_choices` walks the R-tree once, to check it, and
    `reduce_R` once more, to rebuild it."""
    targets = [(seqtypes.derivations, "walk_R"), (seqtypes.reduction, "walk_R")]
    calls = count_calls(monkeypatch, targets)
    compared = 0
    for rd in tower_collapses() + grouped_redexes():
        for b in redexes(rd.term):
            calls.clear()
            choice = enumerate_r_choices(rd, b)[0]
            assert calls["walk_R"] == 1
            reduce_R(rd, b, choice)
            assert calls["walk_R"] == 3
            compared += 1
    assert compared > 10


def test_bad_choices_name_their_nodes_in_dotted_syntax():
    rd = grouped_redexes()[1]
    choice = enumerate_r_choices(rd, (2,))[0]
    ((site, assignment),) = choice.assignments.items()
    assert site == (2,) and sorted(assignment.values()) == list(range(2, 8))
    axioms = sorted(assignment, key=assignment.__getitem__)
    swapped = {**assignment, axioms[0]: assignment[axioms[-1]], axioms[-1]: assignment[axioms[0]]}
    with pytest.raises(ChoiceError, match=r"^type mismatch at 2 for axiom \d+\.\d+ and premise \d+$"):
        reduce_R(rd, (2,), RChoice((2,), {site: swapped}))
    missing = {p: j for p, j in assignment.items() if p != axioms[0]}
    with pytest.raises(ChoiceError, match=r"^choice at 2 does not cover the axioms of 'x'$"):
        reduce_R(rd, (2,), RChoice((2,), {site: missing}))
