from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from seqtypes import positions, stypes
from seqtypes.corpus import make_tower, sr_corpus, tower_instances
from seqtypes.derivations import (
    AxNode,
    Derivation,
    GenBudget,
    check_derivation,
    collapse_derivation,
    dumps_derivation,
    generate_normal_form_derivations,
    loads_derivation,
)
from seqtypes.positions import EPS, LEAF, ZeroOneIso
from seqtypes.reduction import (
    enumerate_r_choices,
    make_operable,
    reduce_R,
    reduce_S,
)
from seqtypes.stypes import SArrow, SAtom, identity_iso, relabel_type, seq
from seqtypes.terms import parse_term
from seqtypes.threads import NEG, ArgEdge, LeftEdge, RightEdge, Thread, ThreadAnalysis
from seqtypes.trivialize import (
    BrotherChainError,
    CollapsingStrategyError,
    DerivationIso,
    NonIdentityInterfaceError,
    ThreadClasses,
    assign_track_values,
    consumption_closure,
    enumerate_derivation_isos,
    random_relabelling,
    reset_derivation,
    run_collapsing_strategy,
    trivialize,
    verify_derivation_iso,
)

from samples import (
    brothers_operable,
    make_equal_typed,
    make_self_app,
    make_two_choice_redex,
    make_wide,
)
from test_derived_reducts import count_calls
from test_stypes import DEEP_POSITIONS, deep_type
from test_reduction_differential import count_judgment_isos
from test_threads_differential import hybrid_operables, wide_operables


def identity_interfaces(checked):
    return {a: identity_iso(checked.left_seq(a)) for a in checked.app_positions()}


def test_consumption_closure_brothers():
    op = brothers_operable()
    analysis = ThreadAnalysis(op)
    classes = consumption_closure(analysis)
    t8 = analysis.thread_of(RightEdge((1,), (8,)))
    t9 = analysis.thread_of(RightEdge((1,), (9,)))
    t2 = analysis.thread_of(RightEdge((1, 6), (1, 2)))
    t7 = analysis.thread_of(RightEdge((1, 6), (1, 7)))
    t3 = analysis.thread_of(ArgEdge((3,)))
    t5 = analysis.thread_of(ArgEdge((5,)))
    assert classes.class_of[t8] == classes.class_of[t2] == classes.class_of[t3]
    assert classes.class_of[t9] == classes.class_of[t7] == classes.class_of[t5]
    assert classes.class_of[t8] != classes.class_of[t9]


def test_closure_without_apps_is_discrete():
    deriv = generate_normal_form_derivations(parse_term("x"))[0]
    analysis = ThreadAnalysis(make_operable(check_derivation(deriv)))
    classes = consumption_closure(analysis)
    assert all(len(c) == 1 for c in classes.classes)


def test_assignment_is_injective_and_brother_consistent():
    op = brothers_operable()
    analysis = ThreadAnalysis(op)
    classes = consumption_closure(analysis)
    values = assign_track_values(analysis, classes)
    assert sorted(values.values()) == list(range(2, 2 + len(classes.classes)))
    for tids in classes.classes:
        for t1 in tids:
            for t2 in tids:
                if t1 != t2:
                    assert not analysis.brothers(t1, t2)
    # brother threads never share an assigned track
    for th1 in analysis.threads:
        for th2 in analysis.threads:
            if analysis.brothers(th1.id, th2.id):
                assert (
                    values[classes.class_of[th1.id]] != values[classes.class_of[th2.id]]
                )


# two brother threads of the brothers derivation: sibling edges 8 and 9 of
# the root's left sequence, and the axiom threads of b and z
BROTHER_PAIRS = {
    "siblings": (RightEdge((1,), (8,)), RightEdge((1,), (9,))),
    "axioms": (LeftEdge(EPS, "b", (4,)), LeftEdge(EPS, "z", (4,))),
}


def forged_brother_class(name: str) -> tuple[set[int], set[int]]:
    """Assign tracks with the named brother pair forged into one class and
    every other thread alone; return the threads the raised error names
    (empty when nothing is raised) and the pair."""
    analysis = ThreadAnalysis(brothers_operable())
    pair = tuple(analysis.thread_of(e) for e in BROTHER_PAIRS[name])
    rest = tuple((t,) for t in range(len(analysis.threads)) if t not in pair)
    classes = (pair,) + rest
    class_of = {t: i for i, tids in enumerate(classes) for t in tids}
    try:
        assign_track_values(analysis, ThreadClasses(classes, class_of))
    except BrotherChainError as exc:
        return set(exc.chain.threads), set(pair)
    return set(), set(pair)


@pytest.mark.parametrize("name", sorted(BROTHER_PAIRS))
def test_forged_brother_class_raises(name):
    named, pair = forged_brother_class(name)
    assert len(pair) == 2
    assert named == pair


@pytest.mark.parametrize("name", sorted(BROTHER_PAIRS))
def test_brother_chain_through_a_third_thread(name):
    """Two forged arcs join the named brother pair through a third thread,
    brother to neither: the chain search returns that path, arc by arc.

    The analysis's own arcs cannot be kept: the axiom threads of b and z
    have none, and joining the classes of the threads of the sibling edges
    8 and 9 also joins two other brother pairs, which the search would
    return first."""
    analysis = ThreadAnalysis(brothers_operable())
    t1, t2 = (analysis.thread_of(e) for e in BROTHER_PAIRS[name])
    third = next(
        t
        for t in range(len(analysis.threads))
        if t not in (t1, t2) and not analysis.brothers(t, t1) and not analysis.brothers(t, t2)
    )
    real = analysis.consumption()
    arcs = [
        dataclasses.replace(real[0], left=t1, right=third),
        dataclasses.replace(real[-1], left=t2, right=third),
    ]
    assert arcs[0].pos != arcs[1].pos
    analysis.consumption = lambda: arcs
    chain = analysis.find_brother_chain()
    assert {chain.threads[0], chain.threads[-1]} == {t1, t2}
    assert chain.threads[1:-1] == (third,)
    pos = {frozenset((arc.left, arc.right)): arc.pos for arc in arcs}
    steps = zip(chain.threads, chain.threads[1:])
    assert chain.positions == tuple(pos[frozenset(step)] for step in steps)


def test_forged_brother_class_raises_under_optimize():
    # `python -O` strips assert statements; the brother check must not be one
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys\n"
        "from test_trivialize import BROTHER_PAIRS, forged_brother_class\n"
        "results = [forged_brother_class(name) for name in sorted(BROTHER_PAIRS)]\n"
        "sys.exit(0 if all(named == pair for named, pair in results) else 3)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


TRIVIALIZE = importlib.import_module("seqtypes.trivialize")


def forged_swap_witness():
    """Trivialize `v u` with two equal-typed copies of u, the consumption
    closure forged to join each left thread with the other argument's
    thread: no two brothers share a class and the trivial derivation
    checks, but the carried interface swaps the two tracks.  Return the
    position and the message of the raised error (None when nothing is
    raised)."""
    op = make_operable(check_derivation(make_equal_typed(2)))

    def swapped(analysis):
        left = analysis.right_threads((1,))
        args = [analysis.arg_thread((3,)), analysis.arg_thread((2,))]
        joined = [tuple(sorted(pair)) for pair in zip(left, args)]
        rest = [(t,) for t in range(len(analysis.threads)) if t not in left + args]
        classes = tuple(sorted(joined + rest))
        return ThreadClasses(classes, {t: i for i, tids in enumerate(classes) for t in tids})

    closure = TRIVIALIZE.consumption_closure
    TRIVIALIZE.consumption_closure = swapped
    try:
        trivialize(op)
    except NonIdentityInterfaceError as exc:
        return exc.position, str(exc)
    finally:
        TRIVIALIZE.consumption_closure = closure
    return None


# the root application, the only one, in the trivial derivation
SWAP_WITNESS = (EPS, "trivialized interface at eps is not the identity")


def test_forged_swap_raises_non_identity_interface():
    assert forged_swap_witness() == SWAP_WITNESS


def test_forged_swap_raises_under_optimize():
    # `python -O` strips assert statements; the identity check must not be one
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys\n"
        "from test_trivialize import SWAP_WITNESS, forged_swap_witness\n"
        "sys.exit(0 if forged_swap_witness() == SWAP_WITNESS else 3)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_trivialize_builds_no_conjugate(monkeypatch):
    """Each square is tested by one walk: trivializing the hybrid corpus and
    `v (w u)^m`, m = 4..12, composes no isomorphism."""
    calls = count_calls(monkeypatch, [(positions, "_carry")])
    ops = hybrid_operables() + wide_operables()[2:]
    for op in ops:
        trivialize(op)
    assert not calls
    # the counter sees the conjugates that a reset with the interface builds
    op = ops[-1]
    reset_derivation(op.checked, trivialize(op).relabelling, op.interface)
    assert calls["_carry"] == len(op.checked.app_positions())


def test_trivialize_and_verify_share_one_judgment_isos(monkeypatch):
    """`trivialize` tests its squares on the judgment isomorphisms of the
    pair (input, trivial derivation), and verifying that pair takes them
    from the isomorphism; another pair builds its own."""
    built = count_judgment_isos(monkeypatch)
    for op in hybrid_operables()[:60] + wide_operables()[2:]:
        built.clear()
        result = trivialize(op)
        trivial = result.trivial
        assert verify_derivation_iso(
            op.checked, trivial, result.iso, op.interface, identity_interfaces(trivial)
        )
        assert built == [op.checked]
        rechecked = check_derivation(trivial.derivation)
        assert verify_derivation_iso(op.checked, rechecked, result.iso)
        assert verify_derivation_iso(op.checked, trivial, result.iso)
        assert built == [op.checked] * 3


def test_trivialize_brothers():
    op = brothers_operable()
    result = trivialize(op)
    assert result.trivial.flavor == "S"
    for a in result.trivial.app_positions():
        assert result.trivial.left_seq(a) == result.trivial.right_seq(a)
    assert collapse_derivation(result.trivial) == collapse_derivation(op.checked)
    assert verify_derivation_iso(
        op.checked,
        result.trivial,
        result.iso,
        op.interface,
        identity_interfaces(result.trivial),
    )


def test_trivialize_other_brothers_interface():
    checked = check_derivation(brothers_operable().checked.derivation)
    op = make_operable(checked)  # lexicographically least interfaces
    result = trivialize(op)
    assert collapse_derivation(result.trivial) == collapse_derivation(checked)
    assert verify_derivation_iso(
        checked, result.trivial, result.iso, op.interface,
        identity_interfaces(result.trivial),
    )


def test_trivialize_already_trivial():
    checked = check_derivation(make_self_app())
    op = make_operable(checked, identity_interfaces(checked))
    result = trivialize(op)
    assert result.trivial.flavor == "S"
    assert collapse_derivation(result.trivial) == collapse_derivation(checked)
    assert verify_derivation_iso(
        checked, result.trivial, result.iso, op.interface,
        identity_interfaces(result.trivial),
    )


def test_reset_by_random_relabelling_is_isomorphic():
    rng = random.Random(7)
    checked = check_derivation(make_self_app())
    for _ in range(5):
        relab = random_relabelling(checked, rng)
        reset = reset_derivation(checked, relab, identity_interfaces(checked))
        assert collapse_derivation(reset.checked) == collapse_derivation(checked)
        assert verify_derivation_iso(checked, reset.checked, reset.iso)
        found = enumerate_derivation_isos(checked, reset.checked, limit=4)
        assert found


def test_reset_relabels_a_deep_axiom_type():
    assert sys.getrecursionlimit() <= 1000
    t = deep_type(DEEP_POSITIONS)
    checked = check_derivation(Derivation(parse_term("x"), "S", {EPS: AxNode(2, t)}))
    new_type, phi = relabel_type(t, {c: c[-1] + 5 for c in t.mutable_positions})
    reset = reset_derivation(checked, (DerivationIso(LEAF, {EPS: phi}), {EPS: AxNode(4, new_type)}))
    assert verify_derivation_iso(checked, reset.checked, reset.iso)
    # the expected type, built directly: == walks both on an explicit stack,
    # where the dataclass == would recurse
    expected = SAtom("o")
    for i in range(DEEP_POSITIONS):
        if i % 2:
            expected = SArrow(seq({7: expected}), SAtom("o1"))
        else:
            expected = SArrow(seq({8: SAtom("o2")}), expected)
    assert reset.checked.type_at(EPS) == expected


# sha256 of the 500 resets below, recorded while relabellings were still
# dicts of new tracks: the seeded draws, and every input built from them,
# stay byte-identical
SEEDED_RESETS_SHA256 = "e31dc465cb34e3a130ff8b21f71f8949dc9510a66967c004730f92966116a046"


def test_seeded_resets_of_the_corpus_are_unchanged():
    rng = random.Random(20250809 + 1)
    texts = []
    for checked in sr_corpus(20250809, 500, size=7, width=2):
        relab = random_relabelling(checked, rng)
        reset = reset_derivation(checked, relab)
        assert reset.iso is relab[0]
        texts.append(dumps_derivation(reset.checked.derivation))
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == SEEDED_RESETS_SHA256


def test_reset_builds_no_type_support(monkeypatch):
    rng = random.Random(11)
    corpus = sr_corpus(20250809, 60, size=7, width=2)
    relabs = [random_relabelling(checked, rng) for checked in corpus]
    # freshly loaded derivations: no type among them has its support cached
    fresh = [check_derivation(loads_derivation(dumps_derivation(c.derivation))) for c in corpus]
    assert sum(len(c.axiom_positions()) for c in fresh) > 100
    calls = []
    support = stypes._support
    monkeypatch.setattr(stypes, "_support", lambda t: calls.append(t) or support(t))
    for checked, relab in zip(fresh, relabs):
        reset_derivation(checked, relab, flavor="Sh")
    assert calls == []


def test_trivialize_builds_no_edge_objects(monkeypatch):
    # edges are ids inside the analysis: trivializing builds edge objects only
    # as consumption-arc witnesses, two per arc, and no Thread at all
    base = check_derivation(make_wide(12))
    hybrid = reset_derivation(base, random_relabelling(base, random.Random(12)), flavor="Sh")
    op = make_operable(hybrid.checked)
    built = []

    def counting(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            built.append(cls)
            init(self, *args, **kwargs)

        return __init__

    for cls in (ArgEdge, RightEdge, LeftEdge, Thread):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    result = trivialize(op)
    arcs = len(result.analysis.consumption())
    assert arcs > 0 and len(result.analysis.edges) > 10 * arcs
    assert len(built) <= 2 * arcs
    assert Thread not in built


def test_verify_rejects_distinct_collapses():
    checked = check_derivation(make_self_app())
    other = check_derivation(
        generate_normal_form_derivations(parse_term("\\x. x x"), GenBudget(width=1))[1]
    )
    assert collapse_derivation(checked) != collapse_derivation(other)
    assert enumerate_derivation_isos(checked, other, limit=8) == []
    for candidate in enumerate_derivation_isos(checked, checked, limit=1):
        assert not verify_derivation_iso(checked, other, candidate)


def test_verify_rejects_axiom_iso_off_its_type():
    # an axiom isomorphism defined off its type's support is no type
    # isomorphism: the verdict is False, not a DomainMismatchError
    checked = check_derivation(Derivation(parse_term("x"), "S", {EPS: AxNode(2, SAtom("o"))}))
    candidate = DerivationIso(ZeroOneIso({EPS: EPS}), {EPS: ZeroOneIso({EPS: EPS, (3,): (3,)})})
    assert not verify_derivation_iso(checked, checked, candidate)


def test_verify_rejects_interface_off_its_sequences():
    # the commuting square reads the second interface only on the image of
    # the left isomorphism, so an entry off the left sequence must be caught
    # by checking each interface on its own
    checked = check_derivation(make_self_app())
    identity = DerivationIso(
        ZeroOneIso({a: a for a in checked.nodes}),
        {a: identity_iso(checked.type_at(a)) for a in checked.axiom_positions()},
    )
    interfaces = identity_interfaces(checked)
    assert verify_derivation_iso(checked, checked, identity, interfaces, interfaces)
    padded = {a: ZeroOneIso({**phi.mapping, (77,): (77,)}) for a, phi in interfaces.items()}
    assert not verify_derivation_iso(checked, checked, identity, interfaces, padded)
    assert not verify_derivation_iso(checked, checked, identity, padded, interfaces)


def test_isomorphic_iff_same_collapse():
    # two generated derivations of the same normal form are isomorphic
    # exactly when their collapses agree
    derivs = [
        check_derivation(d)
        for d in generate_normal_form_derivations(parse_term("x y"), GenBudget(width=2))
    ]
    for c1 in derivs:
        for c2 in derivs:
            same = collapse_derivation(c1) == collapse_derivation(c2)
            assert bool(enumerate_derivation_isos(c1, c2, limit=4)) == same


def test_end_to_end_representation():
    """A reduction choice, built into an interface, trivialized, and then
    replayed by plain deterministic reduction, lands on the chosen collapse."""
    from seqtypes.reduction import build_operable_from_choices, reduce_operable

    checked = check_derivation(make_two_choice_redex())
    collapsed = collapse_derivation(checked)
    for rchoice in enumerate_r_choices(collapsed, EPS):
        expected = reduce_R(collapsed, EPS, rchoice)
        op = build_operable_from_choices(collapsed, checked, [(EPS, rchoice)])
        result = trivialize(op)
        replayed = reduce_S(result.trivial, EPS)
        assert collapse_derivation(replayed) == expected
        # and the operable reduction of the original agrees
        reduced_op, _, _ = reduce_operable(op, EPS)
        assert collapse_derivation(reduced_op.checked) == expected


def test_trivialize_towers_and_strategy():
    for op in tower_instances(5, 8):
        result = trivialize(op)
        assert collapse_derivation(result.trivial) == collapse_derivation(op.checked)
        analysis = ThreadAnalysis(op)
        negative_left = [arc for arc in analysis.consumption() if arc.left_polarity == NEG]
        assert negative_left
        for arc in negative_left[:2]:
            run = run_collapsing_strategy(op, arc)
            assert run.left == run.right or (run.left is None and run.right is None)
            assert len(run.fired) >= 1


def test_collapsing_strategy_single_step():
    body = generate_normal_form_derivations(parse_term("x w"), GenBudget(width=1))[1]
    op_checked = make_tower(body, height=1)
    op = make_operable(op_checked)
    analysis = ThreadAnalysis(op)
    inner_arcs = [
        arc
        for arc in analysis.consumption()
        if arc.left_polarity == NEG and analysis.thread(arc.left).kind == "inner"
    ]
    assert inner_arcs
    run = run_collapsing_strategy(op, inner_arcs[0])
    assert run.fired == [EPS]
    assert run.left == run.right and run.left is not None


def test_collapsing_strategy_height_three():
    body = generate_normal_form_derivations(parse_term("x w"), GenBudget(width=1))[1]
    tower = make_tower(body, height=3)
    op = make_operable(tower)
    analysis = ThreadAnalysis(op)
    inner_arcs = [
        arc
        for arc in analysis.consumption()
        if arc.left_polarity == NEG and analysis.thread(arc.left).kind == "inner"
    ]
    assert inner_arcs
    run = run_collapsing_strategy(op, inner_arcs[0])
    assert len(run.fired) == 3
    assert run.left == run.right and run.left is not None


def forged_strategy_witness():
    """Run the collapsing strategy on a tower of height 3 with the
    consumption of every reduct forged empty, so that no arc continues the
    first step; return the witness the raised error carries (None when
    nothing is raised)."""
    body = generate_normal_form_derivations(parse_term("x w"), GenBudget(width=1))[1]
    op = make_operable(make_tower(body, height=3))
    analysis = ThreadAnalysis(op)
    arc = next(
        arc
        for arc in analysis.consumption()
        if arc.left_polarity == NEG and analysis.thread(arc.left).kind == "inner"
    )
    consumption = ThreadAnalysis.consumption
    ThreadAnalysis.consumption = lambda self: []
    try:
        run_collapsing_strategy(op, arc)
    except CollapsingStrategyError as exc:
        return exc.position, exc.threads
    finally:
        ThreadAnalysis.consumption = consumption
    return None


# the arc at the root, between the residuals 3 and 4 of the arc's threads
STRATEGY_WITNESS = (EPS, (3, 4))


def test_forged_strategy_failure_raises():
    assert forged_strategy_witness() == STRATEGY_WITNESS


def test_forged_strategy_failure_raises_under_optimize():
    # `python -O` strips assert statements; the strategy's invariants must
    # not be one
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys\n"
        "from test_trivialize import STRATEGY_WITNESS, forged_strategy_witness\n"
        "sys.exit(0 if forged_strategy_witness() == STRATEGY_WITNESS else 3)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_trivialize_builds_no_edge(monkeypatch):
    """The trivialization reads threads and arcs through ids: no edge object
    is built on the wide family or on a sample of the hybrid corpus."""
    edge_classes = (ArgEdge, RightEdge, LeftEdge)
    built = count_calls(monkeypatch, [(cls, "__init__") for cls in edge_classes])
    ops = wide_operables() + hybrid_operables()[::5]
    for op in ops:
        trivialize(op)
    assert not built
    # neither do the consumption arcs, which name threads, not edges
    analysis = ThreadAnalysis(ops[0])
    assert len(analysis.consumption()) > 0 and not built
    # the counter sees the edges that the analysis builds when read
    assert len(analysis.edges[:3]) == 3 and built
