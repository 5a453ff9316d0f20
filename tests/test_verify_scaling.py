"""Verification walks each distinct type node a bounded number of times.

`verify_derivation_iso` checks the type isomorphism of every judgment and
both interfaces of every application with one memo.  On `v (w u)^m` an
application's type is its left premise's target and its isomorphism is the
left premise's restricted under 1, so the summed type size grows as m^2
while the distinct type nodes grow as m.  A counting wrapper on
`stypes._children`, installed only here, counts the nodes that
`check_type_iso` visits (it reads the children of each node of both types).
"""

from __future__ import annotations

import random

import pytest

from seqtypes import stypes
from seqtypes.derivations import AppNode, AxNode, Derivation, check_derivation
from seqtypes.positions import EPS, ZeroOneIso
from seqtypes.reduction import make_operable
from seqtypes.stypes import SArrow, SAtom, identity_iso, seq
from seqtypes.terms import parse_term
from seqtypes.trivialize import (
    DerivationIso,
    random_relabelling,
    reset_derivation,
    trivialize,
    verify_derivation_iso,
)

from samples import make_wide


def type_nodes(*roots) -> set[int]:
    """The ids of the distinct S-type and sequence-type nodes below the roots."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            stack += [s for _, s in stypes._children(u)]
            if isinstance(u, SArrow):
                stack.append(u.source)
    return seen


def operable_and_trivial(m: int, seed: int):
    base = check_derivation(make_wide(m))
    hybrid = reset_derivation(base, random_relabelling(base, random.Random(seed)), flavor="Sh")
    op = make_operable(hybrid.checked)
    return op, trivialize(op)


def verify(op, result, iso=None) -> bool:
    """`verify_derivation_iso` with the interfaces, the trivial side's the
    identities, as the benchmark verifies a trivialization."""
    trivial = result.trivial
    identities = {a: identity_iso(trivial.left_seq(a)) for a in trivial.app_positions()}
    return verify_derivation_iso(op.checked, trivial, iso or result.iso, op.interface, identities)


@pytest.mark.parametrize("m", [4, 10, 20, 40])
def test_verification_visits_linear_in_distinct_type_nodes(m, monkeypatch):
    op, result = operable_and_trivial(m, seed=m)
    visits = 0
    children = stypes._children

    def counting(u):
        nonlocal visits
        visits += 1
        return children(u)

    monkeypatch.setattr(stypes, "_children", counting)
    assert verify(op, result)
    monkeypatch.undo()
    checked = [op.checked, result.trivial]
    roots = [c.type_at(a) for c in checked for a in c.nodes]
    roots += [c.right_seq(a) for c in checked for a in c.app_positions()]
    distinct = len(type_nodes(*roots))
    summed = sum(len(c.type_at(a).support) for c in checked for a in c.nodes)
    assert distinct < 30 * m + 10
    assert visits <= 3 * distinct
    if m >= 20:
        assert summed > 3 * distinct  # what walking every judgment's type would cost


def test_a_wrong_letter_under_a_shared_subtree_is_rejected():
    m = 12
    op, result = operable_and_trivial(m, seed=3)
    assert verify(op, result)
    # the head axiom v: the targets of its type are the types of the
    # applications of the spine, which share them and their isomorphisms;
    # swap the images of the two sources of the innermost arrow
    head = (1,) * m
    phi = result.iso.axiom_isos[head]
    mapping = dict(phi.mapping)
    innermost = (1,) * (m - 1)
    k1, k2 = (c for c in mapping if c[:-1] == innermost and c[-1] >= 2)
    mapping[k1], mapping[k2] = mapping[k2], mapping[k1]
    wrong = ZeroOneIso(mapping)
    assert wrong.restrict(1) != phi.restrict(1)
    axiom_isos = {**result.iso.axiom_isos, head: wrong}
    assert not verify(op, result, DerivationIso(result.iso.supp_map, axiom_isos))


def test_a_wrong_letter_under_a_memoized_subtree_is_rejected():
    # v u u: both axioms of u carry the one type object T = (2:A, 3:o4) -> o,
    # so verifying the identity checks T and A once; the second axiom's
    # isomorphism then differs from the identity only below A, where it swaps
    # two differently typed sources
    a_type = SArrow(seq({4: SAtom("o1"), 5: SAtom("o2")}), SAtom("o3"))
    t = SArrow(seq({2: a_type, 3: SAtom("o4")}), SAtom("o"))
    nodes = {
        EPS: AppNode(frozenset({2, 3})),
        (1,): AxNode(2, SArrow(seq({2: t, 3: t}), SAtom("o"))),
        (2,): AxNode(2, t),
        (3,): AxNode(3, t),
    }
    checked = check_derivation(Derivation(parse_term("v u"), "S", nodes))
    supp_map = ZeroOneIso({a: a for a in checked.nodes})
    identities = {a: identity_iso(checked.type_at(a)) for a in checked.axiom_positions()}
    assert verify_derivation_iso(checked, checked, DerivationIso(supp_map, identities))
    swapped = dict(identity_iso(t).mapping)
    swapped[(2, 4)], swapped[(2, 5)] = (2, 5), (2, 4)
    wrong = {**identities, (3,): ZeroOneIso(swapped)}
    assert not verify_derivation_iso(checked, checked, DerivationIso(supp_map, wrong))
