"""Differential tests: the one subject-reduction step against the original reducers.

`reference_reduction` keeps `reduce_S`, `reduce_Sh` and `reduce_operable` as
they were when each fired a redex its own way, with a separate path for
untyped redexes.  The library's reducers, which all go through one step,
must give the same reduct (term, flavor, nodes, judgments) and, for
`reduce_operable`, the same residual maps, residual types and residual
interface:

- `reduce_S` at every redex of the 500-derivation S corpus;
- `reduce_operable` at every redex of its S_h perturbations (each with a
  seeded random interface) and of the redex towers, and `reduce_Sh` there
  with every root interface at every node over the redex;
- the same three at every redex of each of these derivations put in the
  body of an erasing redex whose untyped argument is a copy of its subject:
  the corpus has typed redexes only, and the copy gives untyped ones;
- `build_operable_from_choices` on every choice sequence of length at most
  3 on the criterion-5 instances, against the original builder of
  `reference_judgment_isos` (which fires its steps through the reference
  `residual_derivation`), and `reduce_operable` replayed along each built
  interface.

A built interface carries the steps its builder fired, and its replay
takes them instead of firing them again.  Along every such sequence the
replay must give, step by step, what a record-free copy of the built
interface gives, and fire only its last step.  Guards show that any other
step fires anew: another interface over the first redex, another redex
first, an equal but re-checked derivation, and an interface the caller
built.

At an untyped redex the original `reduce_operable` left `qres` empty; the
step gives the identity there.  Everywhere else `qres` must agree.
"""

from __future__ import annotations

import functools
import itertools

import seqtypes.reduction
from seqtypes.corpus import sr_corpus, tower_instances
from seqtypes.derivations import (
    AbsNode,
    AppNode,
    CheckedDerivation,
    Derivation,
    JudgmentIsos,
    check_derivation,
    collapse_derivation,
)
from seqtypes.positions import EPS, ZeroOneIso
from seqtypes.reduction import (
    OperableDerivation,
    ReductionChoice,
    build_operable_from_choices,
    enumerate_r_choices,
    interfaces_at,
    make_operable,
    reduce_R,
    reduce_S,
    reduce_Sh,
    reduce_operable,
    root_interfaces_at,
)
from seqtypes.stypes import identity_iso
from seqtypes.terms import Abs, App, free_vars, redexes

import reference_judgment_isos as ref_isos
import reference_reduction as ref
from reference_checker import lazy_judgments
from samples import make_two_choice_redex
from test_threads_differential import CORPUS_SEED, hybrid_operables


def erasing(checked: CheckedDerivation) -> CheckedDerivation:
    """(\\e. t) t for the subject t, typed as given in the body and with the
    argument untyped: each redex of t occurs there twice, typed in the body
    and untyped in the argument."""
    assert "e" not in free_vars(checked.term)
    nodes = {EPS: AppNode(frozenset()), (1,): AbsNode()}
    nodes.update({(1, 0) + a: node for a, node in checked.nodes.items()})
    term = App(Abs("e", checked.term), checked.term)
    return check_derivation(Derivation(term, checked.flavor, nodes))


@functools.cache
def s_corpus() -> list[CheckedDerivation]:
    corpus = sr_corpus(CORPUS_SEED, 500, size=7, width=2)
    return corpus + [erasing(checked) for checked in corpus]


@functools.cache
def operables() -> list[OperableDerivation]:
    """The S_h perturbations and the towers with their interfaces, their
    erasing copies, and those of the S corpus with the least interfaces: an
    S derivation reduced at an untyped redex keeps its flavor."""
    base = hybrid_operables() + tower_instances(CORPUS_SEED + 5, 20)
    return (
        base
        + [
            make_operable(
                erasing(op.checked), {(1, 0) + a: phi for a, phi in op.interface.items()}
            )
            for op in base
        ]
        + [make_operable(checked) for checked in s_corpus()[500:]]
    )


def assert_same_reduct(new: CheckedDerivation, old: CheckedDerivation) -> None:
    assert new.term == old.term
    assert new.flavor == old.flavor
    assert new.nodes == old.nodes
    assert lazy_judgments(new) == lazy_judgments(old)


def test_reduce_S_matches_reference():
    typed = untyped = 0
    for checked in s_corpus():
        for b in redexes(checked.term):
            assert_same_reduct(reduce_S(checked, b), ref.reduce_S(checked, b))
            if checked.apps_over.get(b):
                typed += 1
            else:
                untyped += 1
    assert typed > 1500 and untyped > 600


def assert_same_operable_step(op: OperableDerivation, b) -> bool:
    """Compare reduce_operable at b; returns whether the redex is typed."""
    new_op, maps, types = reduce_operable(op, b)
    old_op, old_maps, old_types = ref.reduce_operable(op, b)
    assert_same_reduct(new_op.checked, old_op.checked)
    assert new_op.interface == old_op.interface
    assert maps.redex == old_maps.redex
    assert maps.nodes_over == old_maps.nodes_over
    assert maps.rho == old_maps.rho
    assert maps.ax_pos == old_maps.ax_pos
    assert maps.res == old_maps.res
    if old_maps.nodes_over:
        assert maps.qres == old_maps.qres
    else:
        assert old_maps.qres == {}
        assert maps.qres == {a: a for a in op.checked.nodes}
    for a in op.checked.nodes:
        assert types.iso(a) == old_types.iso(a), (b, a)
    return bool(old_maps.nodes_over)


def test_reduce_operable_matches_reference():
    verdicts = [
        assert_same_operable_step(op, b)
        for op in operables()
        for b in redexes(op.checked.term)
    ]
    assert verdicts.count(True) > 2500 and verdicts.count(False) > 1200


def root_choices(checked: CheckedDerivation, b) -> list[dict]:
    """Root interfaces at the nodes over b: every combination when there are
    at most 24, otherwise each root interface at each node with the least
    ones elsewhere."""
    nodes = checked.apps_over.get(b, [])
    options = [root_interfaces_at(checked, a) for a in nodes]
    if len(list(itertools.islice(itertools.product(*options), 25))) <= 24:
        return [dict(zip(nodes, combo)) for combo in itertools.product(*options)]
    least = {a: opts[0] for a, opts in zip(nodes, options)}
    return [{**least, a: rho} for a, opts in zip(nodes, options) for rho in opts]


def test_reduce_Sh_matches_reference():
    cases = 0
    for op in operables():
        checked = op.checked
        for b in redexes(checked.term):
            for per_node in root_choices(checked, b):
                choice = ReductionChoice(b, per_node)
                new, old = reduce_Sh(checked, b, choice), ref.reduce_Sh(checked, b, choice)
                assert_same_reduct(new, old)
                cases += 1
    assert cases > 4000


def choice_instances() -> list[CheckedDerivation]:
    """The criterion-5 instances: the two-choice redex, four redex towers and
    the eight hybrid derivations with one or two redexes and at most 28
    nodes that offer the most first-step choices."""

    def first_step_choices(checked):
        collapsed = collapse_derivation(checked)
        return sum(len(enumerate_r_choices(collapsed, b)) for b in redexes(checked.term))

    candidates = [
        op.checked
        for op in hybrid_operables()
        if 1 <= len(redexes(op.checked.term)) <= 2 and len(op.checked.nodes) <= 28
    ]
    candidates.sort(key=first_step_choices, reverse=True)
    towers = [op.checked for op in tower_instances(CORPUS_SEED + 5, 4)]
    return [check_derivation(make_two_choice_redex())] + towers + candidates[:8]


def choice_sequences(rd, max_len: int) -> list:
    """Every R-choice sequence of length at most max_len, shortest first."""
    out, frontier = [], [(rd, [])]
    for _ in range(max_len):
        frontier = [
            (reduce_R(current, b, choice), prefix + [(b, choice)])
            for current, prefix in frontier
            for b in redexes(current.term)
            for choice in enumerate_r_choices(current, b)
        ]
        out.extend(sequence for _, sequence in frontier)
    return out


def test_built_choices_match_reference():
    sequences = 0
    for checked in choice_instances():
        rd = collapse_derivation(checked)
        for sequence in choice_sequences(rd, 3):
            new = build_operable_from_choices(rd, checked, sequence)
            old = ref_isos.build_operable_from_choices(rd, checked, sequence)
            assert new.interface == old.interface
            op = new
            for b, _ in sequence:
                assert_same_operable_step(op, b)
                op, _, _ = reduce_operable(op, b)
            sequences += 1
    assert sequences > 200


# -- the fired steps a built interface carries -----------------------------------


def count_fires(monkeypatch) -> list[CheckedDerivation]:
    """The derivations `_fire` fires a redex of, in call order."""
    fire, fired = seqtypes.reduction._fire, []

    def counted(checked, *args):
        fired.append(checked)
        return fire(checked, *args)

    monkeypatch.setattr(seqtypes.reduction, "_fire", counted)
    return fired


def replay(op: OperableDerivation, positions: list) -> list:
    """The operable derivation, the residual maps and the residual type
    isomorphisms of each step."""
    steps = []
    for b in positions:
        op, maps, types = reduce_operable(op, b)
        steps.append((op, maps, types))
    return steps


def record_free(op: OperableDerivation) -> OperableDerivation:
    return OperableDerivation(op.checked, dict(op.interface))


def assert_same_replay(op: OperableDerivation, positions: list, steps: list) -> None:
    """The steps, taken from op, are those of its record-free copy."""
    expected = replay(record_free(op), positions)
    assert len(steps) == len(expected) == len(positions)
    for (new, maps, types), (old, old_maps, old_types) in zip(steps, expected):
        assert new.checked.derivation == old.checked.derivation
        assert new.interface == old.interface
        assert maps.res == old_maps.res
        assert maps.qres == old_maps.qres
        assert new.checked.collapse == old.checked.collapse
        assert types.checked.derivation == old_types.checked.derivation
        for a in types.checked.nodes:
            assert types.iso(a) == old_types.iso(a)


def built_sequences(min_len: int, max_len: int = 3, instances=None):
    """Each criterion-5 choice sequence of a length in the bounds, with its
    base derivation and its redex positions."""
    for checked in choice_instances() if instances is None else instances:
        rd = collapse_derivation(checked)
        for sequence in choice_sequences(rd, max_len):
            if len(sequence) >= min_len:
                yield checked, rd, sequence, [b for b, _ in sequence]


def test_a_built_replay_fires_only_its_last_step(monkeypatch):
    fired = count_fires(monkeypatch)
    sequences = reused = 0
    for checked, rd, sequence, positions in built_sequences(1):
        op = build_operable_from_choices(rd, checked, sequence)
        fired.clear()
        steps = replay(op, positions)
        last_source = steps[-2][0].checked if len(steps) > 1 else op.checked
        assert len(fired) == 1 and fired[0] is last_source
        assert_same_replay(op, positions, steps)
        sequences += 1
        reused += len(sequence) - 1
    assert sequences > 200 and reused > 300


def test_another_interface_over_the_first_redex_fires_anew(monkeypatch):
    """Swap the interface at a node over the first redex for one with other
    roots: the builder fired the first step with the old roots, so the
    replay fires every step."""
    fired = count_fires(monkeypatch)
    cases = 0
    for checked, rd, sequence, positions in built_sequences(2):
        for a in checked.apps_over.get(positions[0], []):
            op = build_operable_from_choices(rd, checked, sequence)
            roots = op.interface[a].roots()
            others = (phi for phi in interfaces_at(checked, a) if phi.roots() != roots)
            other = next(others, None)
            if other is None:
                continue
            op.interface[a] = other
            fired.clear()
            steps = replay(op, positions)
            assert len(fired) == len(positions)
            assert_same_replay(op, positions, steps)
            cases += 1
    assert cases > 60


def test_another_interface_with_the_same_roots_takes_the_reduct_not_the_types(monkeypatch):
    """Swap the interface at a node over the first redex for one with the
    same roots and another map: the first step takes the builder's reduct,
    so nothing fires there, but it builds its own residual isomorphisms,
    and the replay is the record-free one."""
    fired, built = count_fires(monkeypatch), count_judgment_isos(monkeypatch)
    cases = nodes = 0
    for checked, rd, sequence, positions in built_sequences(2):
        for a in checked.apps_over.get(positions[0], []):
            nodes += 1
            op = build_operable_from_choices(rd, checked, sequence)
            phi = op.interface[a]
            others = (psi for psi in interfaces_at(checked, a) if psi.roots() == phi.roots())
            other = next((psi for psi in others if psi != phi), None)
            if other is None:
                continue
            op.interface[a] = other
            fired.clear()
            built.clear()
            _, _, types = reduce_operable(op, positions[0])
            assert fired == [] and built == [checked]
            assert types is not op._fired[0].types
            assert_same_replay(op, positions, replay(op, positions))
            cases += 1
    assert cases > 100 and nodes > 150


def test_another_redex_first_fires_every_step(monkeypatch):
    """Fire the last redex other than the first of the sequence, then the
    leftmost one while any is left, up to three steps: every step fires.
    Two redexes that no node is over have the same, empty, root interfaces,
    so only the redex tells them apart; the erasing copy of each two-redex
    instance has such redexes in its untyped argument."""
    fired = count_fires(monkeypatch)
    two = [c for c in choice_instances() if len(redexes(c.term)) >= 2]
    cases = untyped = 0
    for checked, rd, sequence, positions in built_sequences(2, 2, two + [erasing(c) for c in two]):
        op = build_operable_from_choices(rd, checked, sequence)
        first = [b for b in redexes(checked.term) if b != positions[0]][-1]
        path, current = [first], reduce_operable(record_free(op), first)[0]
        while len(path) < 3 and redexes(current.checked.term):
            path.append(redexes(current.checked.term)[0])
            current = reduce_operable(current, path[-1])[0]
        fired.clear()
        steps = replay(op, path)
        assert len(fired) == len(path)
        assert_same_replay(op, path, steps)
        cases += 1
        untyped += not checked.apps_over.get(first) and not checked.apps_over.get(positions[0])
    assert cases > 200 and untyped > 50


def test_an_equal_rechecked_derivation_fires_anew(monkeypatch):
    fired = count_fires(monkeypatch)
    sequences = 0
    for checked, rd, sequence, positions in built_sequences(2):
        op = build_operable_from_choices(rd, checked, sequence)
        op.checked = check_derivation(op.checked.derivation)
        assert op.checked == checked and op.checked is not checked
        fired.clear()
        steps = replay(op, positions)
        assert len(fired) == len(positions)
        assert_same_replay(op, positions, steps)
        sequences += 1
    assert sequences > 150


def test_an_interface_the_caller_built_never_takes_a_fired_step(monkeypatch):
    fired = count_fires(monkeypatch)
    sequences = 0
    for checked, rd, sequence, positions in built_sequences(2):
        op = build_operable_from_choices(rd, checked, sequence)
        for copy in (record_free(op), make_operable(op.checked, op.interface)):
            fired.clear()
            replay(copy, positions)
            assert len(fired) == len(positions)
        sequences += 1
    assert sequences > 150


# -- residual isomorphisms are identities off a step's spine ----------------------


def count_judgment_isos(monkeypatch) -> list[CheckedDerivation]:
    """The derivations a `JudgmentIsos` is built over, in call order."""
    init, built = JudgmentIsos.__init__, []

    def counted(self, checked, *args):
        built.append(checked)
        init(self, checked, *args)

    monkeypatch.setattr(JudgmentIsos, "__init__", counted)
    return built


def assert_identity_off_the_spine(types: JudgmentIsos, maps, interfaces) -> tuple[int, int]:
    """Below no given axiom, psi is the identity `identity_iso` keeps on the
    node's type; at a node over the redex, whose body holds the given
    axioms, left is the interface; `fixes` says whether left and right are
    identities.  Returns how many application nodes it fixes and moves."""
    checked = types.checked
    spine = {p[:i] for p in maps.x_axioms() for i in range(len(p) + 1)}
    for a in checked.nodes:
        if a not in spine:
            assert types.iso(a) is identity_iso(checked.type_at(a)), a
    for a in maps.nodes_over:
        assert types.left(a) == interfaces[a]
    verdicts = [types.fixes(a) for a in checked.app_positions()]
    for a, fixes in zip(checked.app_positions(), verdicts):
        assert fixes == (types.left(a).is_identity() and types.right(a).is_identity()), a
    return verdicts.count(True), verdicts.count(False)


def test_residual_isos_are_identities_off_the_spine():
    fixed = moved = steps = 0
    for checked, rd, sequence, positions in built_sequences(1):
        op = build_operable_from_choices(rd, checked, sequence)
        records = [(f.types, f.maps, f.interfaces) for f in op._fired]
        for b in positions:
            source = op
            op, maps, types = reduce_operable(source, b)
            records.append((types, maps, source.interface))
            assert types.checked is source.checked
        for types, maps, interfaces in records:
            f, m = assert_identity_off_the_spine(types, maps, interfaces)
            fixed, moved, steps = fixed + f, moved + m, steps + 1
    for op in operables():
        for b in redexes(op.checked.term):
            _, maps, types = reduce_operable(op, b)
            f, m = assert_identity_off_the_spine(types, maps, op.interface)
            fixed, moved, steps = fixed + f, moved + m, steps + 1
    assert steps > 5000 and fixed > 5 * moved > 3000


def test_a_built_replay_builds_only_the_residual_isos_of_its_last_step(monkeypatch):
    built = count_judgment_isos(monkeypatch)
    sequences = 0
    for checked, rd, sequence, positions in built_sequences(2):
        op = build_operable_from_choices(rd, checked, sequence)
        built.clear()
        steps = replay(op, positions)
        assert built == [steps[-2][0].checked]
        sequences += 1
    assert sequences > 150


def test_the_builder_composes_only_along_the_steps_that_move_a_node(monkeypatch):
    """A pinned node composes its left and right isomorphisms along each
    fired step that does not fix it, and no other: two `compose` calls per
    such step, the first one's included, as the pin itself takes two."""
    compose, fixes = ZeroOneIso.compose, JudgmentIsos.fixes
    composed, verdicts = [], []

    def counted_compose(self, inner):
        composed.append(self)
        return compose(self, inner)

    def counted_fixes(self, a):
        verdicts.append(fixes(self, a))
        return verdicts[-1]

    monkeypatch.setattr(ZeroOneIso, "compose", counted_compose)
    monkeypatch.setattr(JudgmentIsos, "fixes", counted_fixes)
    skipped = 0
    for checked, rd, sequence, positions in built_sequences(2):
        composed.clear()
        verdicts.clear()
        build_operable_from_choices(rd, checked, sequence)
        assert len(composed) == 2 * verdicts.count(False)
        skipped += verdicts.count(True)
    assert skipped > 300
