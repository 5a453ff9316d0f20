"""Derived reducts and library-built interfaces against the full checks.

A reduction step re-applies the rules only on its reduct's changed spine
(the prefixes of the nodes over the redex and of the places the argument
premises move to) and takes every other judgment from its input, and the
interfaces the library builds are not re-checked.  Here `check_derivation`
runs in full beside every derived reduct and must find the same types,
subjects, children, binders, per-binder index, right sequences and
collapse, and `check_type_iso` must hold on every interface the library
builds:

- `reduce_S` at every typed redex of the 500-derivation S corpus, and
  `make_operable`'s least interfaces there;
- `reduce_operable`, and `reduce_Sh` with the root interfaces of
  `root_choices`, at every typed redex of the 500 hybrids, the towers and
  their erasing copies;
- `build_operable_from_choices` on every choice sequence of length at most
  3 on the criterion-5 instances, and `reduce_operable` along each.

A mutation on the spine raises where the full checker does, and counters
show where the trust boundary lies: files and public constructors are
checked in full, the library's own values are not re-checked.  Choice
sequences are checked once, on the rigid side: the builder rejects every
malformed choice that the original chained builder of
`reference_judgment_isos` rejects, and runs nothing of the multiset side.
It fires every step but the last, still checks a step after every node is
pinned, and a choice malformed at one R-node names it.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

import seqtypes.cli
import seqtypes.corpus
import seqtypes.derivations
import seqtypes.reduction
import seqtypes.threads
import seqtypes.trivialize
from seqtypes.cli import _interface_to_json, run
from seqtypes.corpus import tower_instances
from seqtypes.derivations import (
    AppMismatch,
    AxNode,
    CheckedDerivation,
    Derivation,
    DerivationCheckError,
    FLAVOR_S,
    check_derivation,
    collapse_derivation,
    dumps_derivation,
)
from seqtypes.positions import EPS, IsoShapeError, ZeroOneIso, format_position
from seqtypes.reduction import (
    ChoiceError,
    OperableDerivation,
    RChoice,
    ReductionChoice,
    ReductionError,
    _fire,
    build_operable_from_choices,
    make_operable,
    reduce_S,
    reduce_Sh,
    reduce_operable,
    residual_maps,
)
from seqtypes.stypes import SAtom, check_type_iso
from seqtypes.terms import beta_reduce_at, redexes

import reference_judgment_isos as ref
from samples import brothers_operable, make_brothers, make_equal_typed
from test_reduction_differential import (
    choice_instances,
    choice_sequences,
    operables,
    root_choices,
    s_corpus,
)
from test_threads_differential import CORPUS_SEED, hybrid_operables, wide_operables

MUTANT = SAtom("mutant")


def assert_full_check_agrees(derived: CheckedDerivation) -> None:
    full = check_derivation(derived.derivation)
    assert derived._types == full._types
    assert derived._subjects == full._subjects
    assert derived._children == full._children
    assert derived.binders == full.binders
    assert derived._bound == full._bound
    assert derived._right_seqs == full._right_seqs
    assert derived.collapse == full.collapse


def assert_interfaces_hold(op: OperableDerivation) -> None:
    checked = op.checked
    assert tuple(sorted(op.interface)) == checked.app_positions()
    for a, iso in op.interface.items():
        assert check_type_iso(checked.left_seq(a), checked.right_seq(a), iso), a


def typed_redexes(checked: CheckedDerivation) -> list:
    return [b for b in redexes(checked.term) if checked.apps_over.get(b)]


def test_S_reducts_agree_with_the_full_check():
    steps = 0
    for checked in s_corpus()[:500]:
        assert_interfaces_hold(make_operable(checked))
        for b in typed_redexes(checked):
            assert_full_check_agrees(reduce_S(checked, b))
            steps += 1
    assert steps > 600


def test_operable_and_Sh_reducts_agree_with_the_full_check():
    steps = cases = 0
    for op in operables():
        checked = op.checked
        for b in typed_redexes(checked):
            new_op, _, _ = reduce_operable(op, b)
            assert_full_check_agrees(new_op.checked)
            assert_interfaces_hold(new_op)
            steps += 1
            for per_node in root_choices(checked, b):
                assert_full_check_agrees(reduce_Sh(checked, b, ReductionChoice(b, per_node)))
                cases += 1
    assert steps > 2500 and cases > 3000


def test_preorder_is_increasing_position_order():
    """`preorder`, read off the checker's walk, against sorting the nodes:
    on the S corpus, its S_h resets, every S reduct of the corpus (the
    kept-spine path), the towers and their reducts, and the wide family."""
    checks = 0

    def check(checked: CheckedDerivation) -> None:
        nonlocal checks
        assert checked.preorder == tuple(sorted(checked.nodes))
        checks += 1

    for checked in s_corpus()[:500]:
        check(checked)
        for b in typed_redexes(checked):
            check(reduce_S(checked, b))
    for op in hybrid_operables() + wide_operables():
        check(op.checked)
    for op in tower_instances(CORPUS_SEED + 5, 20):
        check(op.checked)
        for b in typed_redexes(op.checked):
            check(reduce_operable(op, b)[0].checked)
    assert checks > 1500


def test_built_choices_agree_with_the_full_check():
    sequences = 0
    for checked in choice_instances():
        rd = collapse_derivation(checked)
        for sequence in choice_sequences(rd, 3):
            op = build_operable_from_choices(rd, checked, sequence)
            assert_interfaces_hold(op)
            for b, _ in sequence:
                op, _, _ = reduce_operable(op, b)
                assert_full_check_agrees(op.checked)
                assert_interfaces_hold(op)
            sequences += 1
    assert sequences > 200


def test_the_builder_fires_every_step_but_the_last(monkeypatch):
    """The last choice is realized and pinned, and its reduct, which nothing
    reads, is not built: n choices fire n - 1 steps."""
    fire, fires = seqtypes.reduction._fire, []

    def counted(*args):
        fires.append(args[1])
        return fire(*args)

    monkeypatch.setattr(seqtypes.reduction, "_fire", counted)
    sequences = 0
    for checked in choice_instances():
        rd = collapse_derivation(checked)
        for sequence in choice_sequences(rd, 3):
            fires.clear()
            build_operable_from_choices(rd, checked, sequence)
            assert fires == [b for b, _ in sequence[:-1]]
            sequences += 1
    assert sequences > 200


def test_a_step_after_every_node_is_pinned_is_still_checked():
    """Once every application node is pinned, no redex is left: each typed
    one was fired, and an untyped one sat in an argument that firing erased.
    A further step must still be realized, not skipped because no node is
    left to pin, so repeating the last step raises.  Among the sequences of
    length at most 3 on 20 towers, those that pin every node."""
    cases = 0
    for tower in tower_instances(CORPUS_SEED + 5, 20):
        checked, rd = tower.checked, collapse_derivation(tower.checked)
        for sequence in choice_sequences(rd, 3):
            op = build_operable_from_choices(rd, checked, sequence)
            for b, _ in sequence:
                op, _, _ = reduce_operable(op, b)
            if op.checked.app_positions():
                continue
            with pytest.raises(ReductionError, match="no redex at"):
                build_operable_from_choices(rd, checked, sequence + sequence[-1:])
            cases += 1
    assert cases >= 4


def mutants(choice: RChoice) -> list[tuple[str, RChoice]]:
    """The malformed choices one step's choice gives: a wrong redex and a key
    of an R-node off the redex; and at each node with axioms, an extra axiom
    key (below a leaf, so no axiom), a dropped axiom, an axiom's key moved
    below it, a premise the node lacks and, with two axioms or more, two
    axioms sent to one premise."""
    b, given = choice.redex, choice.assignments
    off_redex = next(iter(given)) + (1,) if given else EPS  # a site's function
    out = [("wrong redex", RChoice(b + (0,), given))]
    out.append(("extra R-node key", RChoice(b, {**given, off_redex: {}})))
    for path, assignment in given.items():
        axioms = list(assignment)
        if not axioms:
            continue
        p, j = axioms[0], assignment[axioms[0]]
        others = {q: k for q, k in assignment.items() if q != p}
        node_mutants = [
            ("extra axiom key", {**assignment, p + (0,): j}),
            ("dropped axiom", others),
            ("axiom key moved off", {**others, p + (0,): j}),
            ("premise the node lacks", {**assignment, p: 99}),
        ]
        if len(axioms) > 1:
            node_mutants.append(("two axioms to one premise", {**assignment, axioms[1]: j}))
        out.extend((name, RChoice(b, {**given, path: bad})) for name, bad in node_mutants)
    return out


def built(build, rd, checked, sequence):
    """What a builder gives: the exception class it raises, or the interface."""
    try:
        return build(rd, checked, sequence).interface
    except (ReductionError, IsoShapeError) as exc:
        return type(exc)


def test_malformed_choices_are_rejected_as_the_chained_builder_rejects_them():
    """Every sequence's last step, as given and mutated each way (so every
    step of every sequence of length at most 3, after its valid prefix):
    the builder gives the chained builder's interface, and raises
    `ChoiceError` where that raises, `IsoShapeError` on a non-bijection
    included."""
    rejected = Counter()
    for checked in choice_instances():
        rd = collapse_derivation(checked)
        for sequence in choice_sequences(rd, 3):
            *prefix, (b, choice) = sequence
            for name, step in [("valid", choice)] + mutants(choice):
                expected = built(ref.build_operable_from_choices, rd, checked, prefix + [(b, step)])
                got = built(build_operable_from_choices, rd, checked, prefix + [(b, step)])
                if isinstance(expected, dict):
                    assert name == "valid" and got == expected
                else:
                    assert got is ChoiceError, (name, expected)
                    rejected[name, expected] += 1
    assert rejected[("two axioms to one premise", IsoShapeError)] > 20, rejected
    kinds = {name for name, _ in rejected}
    assert len(kinds) == 7 and min(rejected.values()) > 20, rejected


def test_a_choice_malformed_at_one_R_node_names_it():
    """Each first-step choice mutated at one R-node raises a `ChoiceError`
    whose `position` is that node, the place its message names."""
    named = 0
    for checked in choice_instances():
        rd = collapse_derivation(checked)
        for ((b, choice),) in choice_sequences(rd, 1):
            for name, step in mutants(choice)[2:]:
                given = choice.assignments
                path = next(p for p, bad in step.assignments.items() if bad != given[p])
                with pytest.raises(ChoiceError) as raised:
                    build_operable_from_choices(rd, checked, [(b, step)])
                assert raised.value.position == path, name
                assert f"at {format_position(path)} " in str(raised.value), name
                named += 1
    assert named > 100


def outcome(run_check):
    """What a check gives: the exception class and position it raises, or
    the checked derivation."""
    try:
        return run_check()
    except DerivationCheckError as exc:
        return type(exc), exc.position


def test_a_broken_rule_on_the_spine_raises_where_the_full_check_does():
    """Each argument premise that is an axiom gets a fresh atom for its type
    in the node data, behind the checked types that `residual_maps` reads;
    the reduct puts that axiom on the spine, where its parent's rule breaks."""
    raised = Counter()
    for checked in s_corpus()[:500]:
        for b in typed_redexes(checked):
            over = checked.apps_over[b]
            identity = {a: {k: k for k in checked.left_seq(a).tracks()} for a in over}
            for a in over:
                for k in checked.node(a).arg_tracks:
                    node = checked.node(a + (k,))
                    if not isinstance(node, AxNode):
                        continue
                    nodes = {**checked.nodes, a + (k,): AxNode(node.track, MUTANT)}
                    mutant = dataclasses.replace(
                        checked, derivation=Derivation(checked.term, FLAVOR_S, nodes)
                    )
                    maps = residual_maps(mutant, b, identity)
                    moved = {maps.res[p]: n for p, n in nodes.items() if p in maps.res}
                    reduct = Derivation(beta_reduce_at(checked.term, b), FLAVOR_S, moved)
                    derived = outcome(lambda: _fire(mutant, b, identity, FLAVOR_S)[0])
                    full = outcome(lambda: check_derivation(reduct))
                    if isinstance(full, tuple):
                        assert derived == full
                        raised[full[0]] += 1
                    else:
                        assert_full_check_agrees(derived)
    assert raised[AppMismatch] > 200, raised


def count_calls(monkeypatch, targets) -> Counter:
    """Count the calls of each (module, name) target, by name."""
    calls: Counter = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    for module, name in targets:
        counted(module, name)
    return calls


def count_checks(monkeypatch) -> Counter:
    """Count the calls of `check_derivation`, wherever the package reads it,
    and of the `check_type_iso` that `OperableDerivation` runs."""
    modules = [seqtypes.cli, seqtypes.corpus, seqtypes.derivations, seqtypes.reduction]
    modules += [seqtypes.threads, seqtypes.trivialize]
    targets = [(m, "check_derivation") for m in modules if hasattr(m, "check_derivation")]
    return count_calls(monkeypatch, targets + [(seqtypes.reduction, "check_type_iso")])


def test_library_values_are_not_rechecked(monkeypatch):
    towers = [op.checked for op in tower_instances(CORPUS_SEED + 5, 4)]
    work = []
    for checked in towers + choice_instances():
        rd = collapse_derivation(checked)
        work.extend((rd, checked, sequence) for sequence in choice_sequences(rd, 2))
    calls = count_checks(monkeypatch)
    for rd, checked, sequence in work:
        op = build_operable_from_choices(rd, checked, sequence)
        for b, _ in sequence:
            op, _, _ = reduce_operable(op, b)
    assert len(work) > 100
    assert calls == Counter()


def test_built_choices_run_nothing_of_the_multiset_side(monkeypatch):
    """Each choice is checked on the rigid side only: building along every
    choice sequence of length at most 3 on the towers and the criterion-5
    instances runs no `reduce_R`, `check_R_types` or `_redex_sites`."""
    towers = [op.checked for op in tower_instances(CORPUS_SEED + 5, 20)]
    work = []
    for checked in towers + choice_instances():
        rd = collapse_derivation(checked)
        work.extend((rd, checked, sequence) for sequence in choice_sequences(rd, 3))
    multiset_side = [(seqtypes.reduction, name) for name in ("reduce_R", "_redex_sites")]
    multiset_side += [(m, "check_R_types") for m in (seqtypes.reduction, seqtypes.derivations)]
    calls = count_calls(monkeypatch, multiset_side)
    for rd, checked, sequence in work:
        build_operable_from_choices(rd, checked, sequence)
    assert len(work) > 250
    assert calls == Counter()


def test_an_interface_the_caller_passes_is_checked(monkeypatch):
    checked = check_derivation(make_equal_typed(3))
    calls = count_checks(monkeypatch)
    make_operable(checked)
    assert calls == Counter()
    make_operable(checked, {EPS: ZeroOneIso({(2,): (3,), (3,): (2,), (4,): (4,)})})
    assert calls == Counter({"check_type_iso": 1})


def test_reduce_with_an_interface_checks_its_file_once(tmp_path, monkeypatch, capsys):
    deriv, interface = tmp_path / "brothers.deriv", tmp_path / "iface.json"
    deriv.write_text(dumps_derivation(make_brothers()))
    listed = _interface_to_json(brothers_operable().interface)
    interface.write_text(json.dumps(listed))
    calls = count_checks(monkeypatch)
    argv = ["reduce", "--file", str(deriv), "--pos", "1.1", "--interface", str(interface)]
    assert run(argv) == 0
    assert calls == Counter(
        {"check_derivation": 1, "check_type_iso": len(listed["interfaces"])}
    )
    assert capsys.readouterr().out
