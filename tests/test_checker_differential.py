"""Differential tests: the per-binder checker against the per-node-context one.

`reference_checker` keeps `check_derivation` as it was when it built the
full context of every node and found track conflicts in their disjoint
unions.  The library's checker, which checks quantitativity per binder and
builds no context, must give the same judgments (built from its per-binder
index by `reference_checker.lazy_judgments`), binders, children, right
sequences, collapse and per-binder axioms on:

- the 500-derivation S corpus and its S_h perturbations;
- `v (w u)^m` for m = 4..20, in S and relabelled into S_h;
- the redex towers;
- every reduct along the choice sequences of length at most 3 on the
  criterion-5 instances.

On a mutation corpus both checkers must raise the same error class at the
same position with the same message, and for a `TrackConflict` the same
variable and tracks: duplicated tracks of one binder, two variables
clashing at one application, three-way clashes, random retrackings,
wrong abstraction sources, misplaced nodes, and a conflict together with a
shape fault elsewhere.
"""

from __future__ import annotations

import functools
import random

from seqtypes.corpus import sr_corpus, tower_instances
from seqtypes.derivations import (
    AbsNode,
    AppMismatch,
    AppNode,
    AxNode,
    CheckedDerivation,
    Derivation,
    DerivationCheckError,
    TrackConflict,
    check_derivation,
    collapse_derivation,
)
from seqtypes.positions import EPS
from seqtypes.reduction import (
    build_operable_from_choices,
    enumerate_r_choices,
    reduce_R,
    reduce_operable,
)
from seqtypes.stypes import SAtom, parse_type
from seqtypes.terms import parse_term, redexes
from seqtypes.trivialize import random_relabelling, reset_derivation

import reference_checker as ref
from samples import make_brothers, make_self_app, make_shadowed_redex, make_wide
from test_reduction_differential import choice_instances
from test_rwalk_differential import positional
from test_threads_differential import CORPUS_SEED


def assert_same_check(deriv: Derivation) -> CheckedDerivation:
    new, old = check_derivation(deriv), ref.check_derivation(deriv)
    assert ref.lazy_judgments(new) == old.judgments
    assert new.binders == old.binders
    (rd, positions), (old_rd, paths) = new.collapse, old.collapse
    assert rd == old_rd and positions == {a: positional(p) for a, p in paths.items()}
    for a in deriv.nodes:
        assert new.type_at(a) == old.type_at(a)
        assert new.children(a) == old.children(a)
        if isinstance(deriv.nodes[a], AppNode):
            assert new.right_seq(a) == old.right_seq(a)
            assert new.left_seq(a) == old.left_seq(a)
        elif isinstance(deriv.nodes[a], AbsNode):
            bound = new.bound_by(a)
            assert sorted(bound.values()) == sorted(old.bound_by(a))
            assert all(new.node(p).track == k for k, p in bound.items())
    return new


@functools.cache
def s_corpus() -> list[CheckedDerivation]:
    return sr_corpus(CORPUS_SEED, 500, size=7, width=2)


@functools.cache
def hybrids() -> list[CheckedDerivation]:
    rng = random.Random(CORPUS_SEED + 1)
    return [
        reset_derivation(checked, random_relabelling(checked, rng), flavor="Sh").checked
        for checked in s_corpus()
    ]


def test_corpus_and_perturbations_match_reference():
    for checked in s_corpus() + hybrids():
        assert_same_check(checked.derivation)


def test_wide_family_matches_reference():
    rng = random.Random(CORPUS_SEED + 6)
    for m in range(4, 21):
        base = assert_same_check(make_wide(m))
        hybrid = reset_derivation(base, random_relabelling(base, rng), flavor="Sh").checked
        assert_same_check(hybrid.derivation)


def test_towers_match_reference():
    for op in tower_instances(CORPUS_SEED + 5, 20):
        assert_same_check(op.checked.derivation)


def test_choice_sequence_reducts_match_reference():
    reducts = 0
    for checked in choice_instances():
        rd = collapse_derivation(checked)
        frontier = [(rd, [])]
        for _ in range(3):
            extended = []
            for current, prefix in frontier:
                for b in redexes(current.term):
                    for choice in enumerate_r_choices(current, b):
                        extended.append((reduce_R(current, b, choice), prefix + [(b, choice)]))
            for _, sequence in extended:
                op = build_operable_from_choices(rd, checked, sequence)
                for b, _ in sequence:
                    op, _, _ = reduce_operable(op, b)
                    assert_same_check(op.checked.derivation)
                    reducts += 1
            frontier = extended
    assert reducts > 400


def test_quantitativity_holds_matches_reference():
    samples = [make_self_app(), make_brothers(), make_shadowed_redex(), make_wide(6)]
    for deriv in [c.derivation for c in s_corpus()[:100] + hybrids()[:100]] + samples:
        new, old = check_derivation(deriv), ref.check_derivation(deriv)
        assert ref.binder_quantitativity_holds(new) and ref.quantitativity_holds(old)


# -- the mutation corpus -----------------------------------------------------------


def outcome(check, deriv: Derivation) -> tuple:
    """What a checker makes of a derivation: the error's class, position,
    message and, for a track conflict, variable and tracks."""
    try:
        check(deriv)
    except TrackConflict as exc:
        return (TrackConflict, exc.position, str(exc), exc.variable, exc.tracks)
    except AppMismatch as exc:
        return (AppMismatch, exc.position, str(exc), exc.left, exc.right)
    except DerivationCheckError as exc:
        return (type(exc), exc.position, str(exc))
    return ("ok",)


def assert_same_outcome(deriv: Derivation) -> tuple:
    got = outcome(check_derivation, deriv)
    assert got == outcome(ref.check_derivation, deriv)
    return got


def retracked(deriv: Derivation, tracks: dict) -> Derivation:
    """The derivation with the given axioms moved onto new tracks."""
    nodes = dict(deriv.nodes)
    for p, k in tracks.items():
        nodes[p] = AxNode(k, nodes[p].stype)
    return Derivation(deriv.term, deriv.flavor, nodes)


def bound_groups(checked: CheckedDerivation) -> list[list]:
    """The axioms of each binder, abstraction or free variable, with at
    least two axioms."""
    groups: dict = {}
    for p, binder in checked.binders.items():
        key = binder if binder is not None else checked.subject_at(p).name
        groups.setdefault(key, []).append(p)
    return [sorted(ps) for ps in groups.values() if len(ps) > 1]


def conflict_at(got: tuple) -> bool:
    return got[0] is TrackConflict


def base_derivations() -> list[CheckedDerivation]:
    return s_corpus()[:250] + hybrids()[:250] + [check_derivation(make_wide(5))]


def test_duplicated_binder_tracks_raise_as_reference():
    conflicts = 0
    for checked in base_derivations():
        for ps in bound_groups(checked):
            for p, q in zip(ps, ps[1:]):
                deriv = retracked(checked.derivation, {q: checked.node(p).track})
                conflicts += conflict_at(assert_same_outcome(deriv))
    assert conflicts > 300


def test_three_way_clashes_raise_as_reference():
    conflicts = 0
    for checked in base_derivations():
        for ps in bound_groups(checked):
            if len(ps) >= 3:
                track = checked.node(ps[0]).track
                deriv = retracked(checked.derivation, {p: track for p in ps})
                conflicts += conflict_at(assert_same_outcome(deriv))
    assert conflicts > 20


def shared_binders(checked: CheckedDerivation, c) -> list[list[list]]:
    """Per binder in scope at the application c whose axioms lie above two
    or more of its premises, those axioms, premise by premise."""
    n, out = len(c), {}
    for p, binder in checked.binders.items():
        if p[:n] == c and (binder is None or len(binder) < n):
            key = binder if binder is not None else checked.subject_at(p).name
            out.setdefault(key, {}).setdefault(p[n], []).append(p)
    return [list(by_premise.values()) for by_premise in out.values() if len(by_premise) > 1]


def test_two_variables_clashing_at_one_application_raise_as_reference():
    # for two binders at once, an axiom above one premise takes the track of
    # one above another
    at_the_application = 0
    wide = [check_derivation(make_wide(m)) for m in range(4, 9)]
    for checked in s_corpus() + hybrids() + wide:
        for c in checked.app_positions():
            shared = shared_binders(checked, c)
            for i, first in enumerate(shared):
                for second in shared[i + 1 :]:
                    pairs = (first[:2], second[:2])
                    moves = {qs[0]: checked.node(ps[0]).track for ps, qs in pairs}
                    got = assert_same_outcome(retracked(checked.derivation, moves))
                    at_the_application += got[0] is TrackConflict and got[1] == c
    assert at_the_application > 30


def test_named_variable_is_the_first_met_again():
    """At the root of g x y (h x y) the left premise holds x and y on track
    4, the copy on track 2 holds y on 4 and the copy on track 3 holds x on
    4.  The union fails first on x, which comes before y, but y is met again
    first: y is named, with x's tracks."""
    o = SAtom("o")
    nodes = {
        EPS: AppNode(frozenset({2, 3})),
        (1,): AppNode(frozenset({2})),
        (1, 1): AppNode(frozenset({2})),
        (1, 1, 1): AxNode(7, parse_type("(2:o) -> (2:o) -> (2:o, 3:o) -> o")),
        (1, 1, 2): AxNode(4, o),
        (1, 2): AxNode(4, o),
        (2,): AppNode(frozenset({2})),
        (2, 1): AppNode(frozenset()),
        (2, 1, 1): AxNode(5, parse_type("() -> (2:o) -> o")),
        (2, 2): AxNode(4, o),
        (3,): AppNode(frozenset()),
        (3, 1): AppNode(frozenset({2})),
        (3, 1, 1): AxNode(6, parse_type("(2:o) -> () -> o")),
        (3, 1, 2): AxNode(4, o),
    }
    deriv = Derivation(parse_term("g x y (h x y)"), "S", nodes)
    got = assert_same_outcome(deriv)
    assert got[0] is TrackConflict and got[1] == EPS and got[3:] == ("y", frozenset({4}))


def test_random_retrackings_raise_as_reference():
    rng = random.Random(CORPUS_SEED + 11)
    kinds: dict = {}
    for checked in base_derivations():
        axioms = checked.axiom_positions()
        for _ in range(4):
            chosen = rng.sample(axioms, min(len(axioms), rng.randint(2, 4)))
            deriv = retracked(checked.derivation, {p: rng.choice((2, 3)) for p in chosen})
            got = assert_same_outcome(deriv)
            kinds[got[0]] = kinds.get(got[0], 0) + 1
    assert kinds.get(TrackConflict, 0) > 200 and kinds.get(AppMismatch, 0) > 50


def test_wrong_abstraction_sources_raise_as_reference():
    mismatches = 0
    for checked in base_derivations():
        for p, binder in checked.binders.items():
            if binder is not None:
                nodes = dict(checked.nodes)
                nodes[p] = AxNode(checked.node(p).track, SAtom("fresh"))
                got = assert_same_outcome(Derivation(checked.term, checked.flavor, nodes))
                mismatches += got[0] is AppMismatch
    assert mismatches > 300


def misplaced(deriv: Derivation, rng: random.Random) -> Derivation:
    """The derivation with one node moved, dropped or changed in kind."""
    nodes = dict(deriv.nodes)
    a = rng.choice(sorted(nodes))
    move = rng.randrange(4)
    if move == 0:
        nodes[a + (rng.choice((0, 1, 7)),)] = nodes[a]
    elif move == 1 and a:
        del nodes[a]
    elif move == 2:
        nodes[a] = AbsNode() if not isinstance(nodes[a], AbsNode) else AppNode(frozenset())
    else:
        nodes[a[:-1] + (a[-1] + 1,) if a else (1,)] = nodes[a]
    return Derivation(deriv.term, deriv.flavor, nodes)


def test_misplaced_nodes_raise_as_reference():
    rng = random.Random(CORPUS_SEED + 12)
    faults = 0
    for checked in base_derivations():
        for _ in range(3):
            got = assert_same_outcome(misplaced(checked.derivation, rng))
            faults += got[0] != "ok"
    assert faults > 1000


def test_conflict_with_a_shape_fault_elsewhere_raises_as_reference():
    rng = random.Random(CORPUS_SEED + 13)
    kinds: dict = {}
    for checked in base_derivations():
        for ps in bound_groups(checked)[:2]:
            deriv = retracked(checked.derivation, {ps[1]: checked.node(ps[0]).track})
            got = assert_same_outcome(misplaced(deriv, rng))
            kinds[got[0]] = kinds.get(got[0], 0) + 1
    assert kinds.get(TrackConflict, 0) > 20 and len(kinds) >= 3
