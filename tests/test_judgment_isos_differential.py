"""Differential tests: the one judgment-isomorphism pass against the old builders.

`reference_judgment_isos` keeps `NodeIsos`, `ResidualTypes`, the original
`verify_derivation_iso`, the hand-written conjugations of resetting and of
`reduce_operable`, and the original `build_operable_from_choices`.
`derivations.JudgmentIsos` must agree with them everywhere:

- resetting: every node, left and right isomorphism and every conjugated
  interface, on random resets and trivializations of the hybrid acceptance
  corpus (each derivation with a seeded random interface), of the redex
  towers and of `v (w u)^m` for m = 4..20;
- reduction: the residual isomorphism at every position with a residual,
  the left and right isomorphisms and the residual interface, at every
  typed redex of the same corpus and towers, and the interfaces built from
  every choice sequence of length at most 3 on the towers;
- verification: the verdict, with and without interfaces, on accepted and
  rejected candidate isomorphisms;
- the isomorphisms themselves: the `.mapping` of every shared-node
  `ZeroOneIso` (every node, left, right and conjugated interface, every
  reset axiom isomorphism, every residual isomorphism and interface) equals
  the reference's dict;
- `CheckedDerivation.bound_by`, the checker's per-binder index, against
  the axioms above each abstraction's body bound by it, and above the root
  for each free variable.
"""

from __future__ import annotations

import functools
import itertools
import random

from seqtypes.corpus import tower_instances
from seqtypes.derivations import AbsNode, check_derivation, collapse_derivation
from seqtypes.positions import EPS, iter_01_isos
from seqtypes.reduction import (
    OperableDerivation,
    build_operable_from_choices,
    enumerate_r_choices,
    make_operable,
    reduce_R,
    reduce_operable,
)
from seqtypes.stypes import iter_type_isos
from seqtypes.terms import free_vars, redexes, subterm_at
from seqtypes.trivialize import (
    DerivationIso,
    random_relabelling,
    reset_derivation,
    support_children,
    support_label,
    trivialize,
    verify_derivation_iso,
)

import reference_judgment_isos as ref
from reference_isos import support_isos
from reference_relabelling import Relabelling01, apply_relabelling
from reference_relabelling import random_relabelling as reference_random_relabelling
from samples import (
    make_brothers,
    make_self_app,
    make_shadowed_redex,
    make_tracked_redex,
    make_two_choice_redex,
    make_wide,
)
from test_threads_differential import CORPUS_SEED, hybrid_operables


@functools.cache
def corpus_operables() -> list[OperableDerivation]:
    return hybrid_operables()


@functools.cache
def tower_operables() -> list[OperableDerivation]:
    return tower_instances(CORPUS_SEED + 5, 20)


def wide_operables() -> list[OperableDerivation]:
    """S_h relabellings of v (w u)^m for m = 4..20 with their least interfaces."""
    rng = random.Random(CORPUS_SEED + 7)
    out = []
    for m in range(4, 21):
        base = check_derivation(make_wide(m))
        hybrid = reset_derivation(base, random_relabelling(base, rng), flavor="Sh").checked
        out.append(make_operable(hybrid))
    return out


def mappings(interface: dict) -> dict:
    """An interface's isomorphisms as plain dicts."""
    return {a: dict(iso.mapping) for a, iso in interface.items()}


def assert_same_node_isos(c1, c2, iso: DerivationIso, interface=None) -> None:
    new = iso.judgment_isos(c1, c2)
    old = ref.NodeIsos(c1, c2, dict(iso.supp_map.mapping), iso.axiom_isos)
    for a in c1.nodes:
        assert new.iso(a).mapping == old.node_iso(a).mapping, a
    for a in c1.app_positions():
        left, right = old.left_iso(a), old.right_iso(a)
        assert new.left(a).mapping == left.mapping, a
        assert new.right(a).mapping == right.mapping, a
        if interface is not None:
            expected = right.compose(interface[a]).compose(left.inverse())
            assert new.conjugate(a, interface[a]).mapping == expected.mapping, a


def assert_same_reset(op: OperableDerivation, rng: random.Random, again: random.Random) -> int:
    """Compare a random reset and the trivialization of op; returns the number
    of applications compared.  `again` is a second generator in the state of
    `rng`: the reference draws the expected letters from it."""
    reset = reset_derivation(op.checked, random_relabelling(op.checked, rng), op.interface)
    axiom_types = reference_random_relabelling(op.checked, again).axiom_types
    for a, phi in reset.iso.axiom_isos.items():
        tracks = Relabelling01(axiom_types[a])
        assert phi.mapping == apply_relabelling(op.checked.type_at(a).support, tracks)[1].mapping
    assert_same_node_isos(op.checked, reset.checked, reset.iso, op.interface)
    expected = ref.reset_interface(op.checked, reset.checked, reset.iso, op.interface)
    assert mappings(reset.interface) == mappings(expected)
    result = trivialize(op)
    assert_same_node_isos(op.checked, result.trivial, result.iso, op.interface)
    return len(op.interface)


def test_reset_matches_reference():
    rng, again = random.Random(CORPUS_SEED + 8), random.Random(CORPUS_SEED + 8)
    operables = corpus_operables() + tower_operables() + wide_operables()
    apps = sum(assert_same_reset(op, rng, again) for op in operables)
    assert len(operables) == 537 and apps > 1000


def assert_same_residuals(op: OperableDerivation) -> int:
    """Compare reduce_operable at every redex of op; returns the number of
    typed redexes."""
    typed = 0
    for b in redexes(op.checked.term):
        new_op, maps, types = reduce_operable(op, b)
        if not maps.nodes_over:
            continue
        typed += 1
        interface, old = ref.reduce_interface(op, maps, new_op.checked)
        assert mappings(new_op.interface) == mappings(interface)
        for alpha in maps.qres:
            assert types.iso(alpha).mapping == old.iso(alpha).mapping, (b, alpha)
        for alpha in op.checked.app_positions():
            if alpha in maps.res:
                assert types.left(alpha).mapping == old.res_left(alpha).mapping, (b, alpha)
                assert types.right(alpha).mapping == old.res_right(alpha).mapping, (b, alpha)
    return typed


def test_residuals_match_reference():
    operables = corpus_operables() + tower_operables()
    samples = [make_two_choice_redex(), make_tracked_redex()]
    operables += [make_operable(check_derivation(d)) for d in samples]
    assert sum(assert_same_residuals(op) for op in operables) > 600


def test_built_choices_match_reference():
    sequences = 0
    samples = [make_two_choice_redex(), make_tracked_redex()]
    small = [op for op in corpus_operables() if 1 <= len(redexes(op.checked.term)) <= 2]
    small = [op for op in small if len(op.checked.nodes) <= 28][:20]
    for op in tower_operables() + small + [make_operable(check_derivation(d)) for d in samples]:
        rd = collapse_derivation(op.checked)
        frontier = [(rd, [])]
        for _ in range(3):
            extended = []
            for current, prefix in frontier:
                for b in redexes(current.term):
                    for choice in enumerate_r_choices(current, b):
                        extended.append((reduce_R(current, b, choice), prefix + [(b, choice)]))
            for _, sequence in extended:
                new = build_operable_from_choices(rd, op.checked, sequence)
                old = ref.build_operable_from_choices(rd, op.checked, sequence)
                assert mappings(new.interface) == mappings(old.interface)
                sequences += 1
            frontier = extended
    assert sequences > 100


def candidates(c1, c2) -> list[DerivationIso]:
    """Up to 4 support isomorphisms, each with up to 16 combinations of up to
    3 type isomorphisms per axiom: most are rejected."""
    out = []
    axioms = c1.axiom_positions()
    supp_isos = iter_01_isos((c1, EPS), (c2, EPS), support_children, support_label, True)
    for supp_iso in itertools.islice(supp_isos, 4):
        factors = [
            list(itertools.islice(iter_type_isos(c1.type_at(a), c2.type_at(supp_iso(a))), 3))
            for a in axioms
        ]
        for combo in itertools.islice(itertools.product(*factors), 16):
            out.append(DerivationIso(supp_iso, dict(zip(axioms, combo))))
    return out


def test_verify_matches_reference():
    rng = random.Random(CORPUS_SEED + 9)
    verdicts = {True: 0, False: 0}
    for op in corpus_operables()[:200] + tower_operables():
        reset = reset_derivation(op.checked, random_relabelling(op.checked, rng), op.interface)
        c1, c2 = op.checked, reset.checked
        for candidate in candidates(c1, c2) + [reset.iso]:
            verdict = verify_derivation_iso(c1, c2, candidate)
            assert verdict == ref.verify_derivation_iso(c1, c2, candidate)
            interfaces = (op.interface, reset.interface)
            with_interfaces = verify_derivation_iso(c1, c2, candidate, *interfaces)
            assert with_interfaces == ref.verify_derivation_iso(c1, c2, candidate, *interfaces)
            verdicts[verdict] += 1
            verdicts[with_interfaces] += 1
    assert verdicts[True] > 300 and verdicts[False] > 300


def test_unlabelled_support_maps_are_rejected_alike():
    # support maps that may send an axiom onto an abstraction or an
    # application, each axiom keeping the reset's type isomorphism
    rng = random.Random(CORPUS_SEED + 10)
    compared = 0
    for op in corpus_operables():
        reset = reset_derivation(op.checked, random_relabelling(op.checked, rng))
        c1, c2 = op.checked, reset.checked
        own = {a: reset.iso.axiom_isos[a] for a in c1.axiom_positions()}
        for supp_iso in itertools.islice(support_isos(c1.support(), c2.support()), 6):
            candidate = DerivationIso(supp_iso, own)
            assert verify_derivation_iso(c1, c2, candidate) == ref.verify_derivation_iso(
                c1, c2, candidate
            )
            compared += 1
    assert compared > 600


def test_bound_by_matches_reference():
    compared = 0
    samples = [make_shadowed_redex(), make_self_app(), make_brothers()]
    for checked in [op.checked for op in corpus_operables() + tower_operables()] + [
        check_derivation(d) for d in samples
    ]:
        for a, node in checked.nodes.items():
            if isinstance(node, AbsNode):
                x = subterm_at(checked.term, a).binder
                bound = checked.bound_by(a)
                assert set(bound.values()) == ref.axioms_above(checked, a + (0,), x), a
                assert all(checked.node(p).track == k for k, p in bound.items())
                compared += 1
        for x in free_vars(checked.term):
            assert set(checked.bound_by(x).values()) == ref.axioms_above(checked, EPS, x), x
            compared += 1
    assert compared > 1000
