"""Differential tests: derivation isomorphisms whose support map is a `ZeroOneIso`.

`reference_derivation_isos` keeps the dict support map, the clause-by-clause
`verify_derivation_iso` that checked it, the enumerator that built it and
the loop of `reset_derivation`.  Against it and against the original
`reference_judgment_isos.verify_derivation_iso`:

- every support map that `reset_derivation` and `trivialize` make is a
  `ZeroOneIso` whose `.mapping` is the loop's dict, on random resets of the
  hybrid acceptance corpus, the redex towers and `v (w u)^m` for m = 4..20;
- `enumerate_derivation_isos` finds the same isomorphisms in the same order
  on the same derivations;
- `verify_derivation_iso` gives the references' verdict, with and without
  interfaces, on a mutation corpus of support maps: two argument letters
  swapped with their subtrees, a leaf left out, a node added under a leaf,
  a leaf sent off the second support, and an axiom sent onto an application;
- and on a mutation corpus of interfaces, where the commuting square is
  tested by `JudgmentIsos.commutes` and the references build conjugates:
  two root letters swapped, two letters swapped one level down, the
  identity checked against a non-identity, and a letter off the left
  sequence.
"""

from __future__ import annotations

import itertools
import random

from seqtypes.derivations import AppNode, AxNode, Derivation, JudgmentIsos, check_derivation
from seqtypes.positions import EPS, ZeroOneIso
from seqtypes.stypes import SArrow, SAtom, identity_iso, iter_type_isos, seq
from seqtypes.terms import parse_term
from seqtypes.trivialize import (
    DerivationIso,
    enumerate_derivation_isos,
    random_relabelling,
    reset_derivation,
    trivialize,
    verify_derivation_iso,
)

import reference_derivation_isos as ref
import reference_judgment_isos as original
import reference_threads
from reference_relabelling import random_relabelling as reference_random_relabelling
from test_judgment_isos_differential import (
    CORPUS_SEED,
    corpus_operables,
    tower_operables,
    wide_operables,
)


def as_reference(iso: DerivationIso) -> ref.DerivationIso:
    return ref.DerivationIso(dict(iso.supp_map.mapping), iso.axiom_isos)


def test_reset_support_maps_match_reference():
    # the expected letters are drawn again, from a second generator with the
    # same seed, or rebuilt by the reference thread analysis: none is read
    # off the support map under test
    rng, again = random.Random(CORPUS_SEED + 11), random.Random(CORPUS_SEED + 11)
    operables = corpus_operables() + tower_operables() + wide_operables()
    for op in operables:
        reset = reset_derivation(op.checked, random_relabelling(op.checked, rng), op.interface)
        result = trivialize(op)
        built = reference_threads.build_relabelling(result.analysis, result.classes, result.values)
        for iso, relab in (
            (reset.iso, reference_random_relabelling(op.checked, again)),
            (result.iso, built),
        ):
            assert isinstance(iso.supp_map, ZeroOneIso)
            assert iso.supp_map.mapping == ref.reset_support_map(op.checked, relab)
    assert len(operables) == 537


def test_enumerated_isos_match_reference():
    rng = random.Random(CORPUS_SEED + 12)
    found = 0
    for op in corpus_operables() + tower_operables() + wide_operables():
        reset = reset_derivation(op.checked, random_relabelling(op.checked, rng))
        c1, c2 = op.checked, reset.checked
        new = enumerate_derivation_isos(c1, c2, limit=4)
        assert all(isinstance(iso.supp_map, ZeroOneIso) for iso in new)
        assert [as_reference(iso) for iso in new] == ref.enumerate_derivation_isos(c1, c2, limit=4)
        found += len(new)
    assert found > 700


def swap_letters(m: dict, a1: tuple, a2: tuple) -> dict:
    """m with the images of the sibling letters of a1 and a2 exchanged,
    each subtree moving with its letter."""
    i = len(a1) - 1
    k1, k2 = m[a1][i], m[a2][i]

    def moved(c: tuple, b: tuple) -> tuple:
        if c[: i + 1] == a1:
            return b[:i] + (k2,) + b[i + 1 :]
        if c[: i + 1] == a2:
            return b[:i] + (k1,) + b[i + 1 :]
        return b

    return {c: moved(c, b) for c, b in m.items()}


def mutated_maps(m: dict) -> dict[str, list[dict]]:
    """Up to three wrong support maps of each kind for the right map m."""
    parents = {a[:-1] for a in m if a}
    leaves = sorted(a for a in m if a and a not in parents)
    siblings: dict[tuple, list[tuple]] = {}
    for a in sorted(m):
        if a and a[-1] >= 2:
            siblings.setdefault(a[:-1], []).append(a)
    swapped = [
        swap_letters(m, a1, a2)
        for kids in siblings.values()
        for a1, a2 in itertools.combinations(kids, 2)
    ]
    off = []
    for a in leaves:
        if a[-1] >= 2:
            taken = {m[c][-1] for c in siblings[a[:-1]]}
            off.append({**m, a: m[a][:-1] + (max(taken) + 1,)})
    return {
        "swapped letters": swapped[:3],
        "missing leaf": [{c: b for c, b in m.items() if c != a} for a in leaves[:3]],
        "extra node": [{**m, a + (7,): m[a] + (7,)} for a in leaves[:3]],
        "image off the support": off[:3],
    }


def assert_reference_verdict(c1, c2, iso: DerivationIso, interfaces) -> bool:
    verdict = verify_derivation_iso(c1, c2, iso)
    assert verdict == original.verify_derivation_iso(c1, c2, iso)
    assert verdict == ref.verify_derivation_iso(c1, c2, as_reference(iso))
    squared = verify_derivation_iso(c1, c2, iso, *interfaces)
    assert squared == original.verify_derivation_iso(c1, c2, iso, *interfaces)
    assert squared == ref.verify_derivation_iso(c1, c2, as_reference(iso), *interfaces)
    return verdict


def test_mutated_support_maps_get_the_reference_verdict():
    rng = random.Random(CORPUS_SEED + 13)
    counts: dict[str, int] = {}
    for op in corpus_operables()[:150] + tower_operables() + wide_operables()[:5]:
        reset = reset_derivation(op.checked, random_relabelling(op.checked, rng), op.interface)
        c1, c2, interfaces = op.checked, reset.checked, (op.interface, reset.interface)
        assert assert_reference_verdict(c1, c2, reset.iso, interfaces)
        for kind, maps in mutated_maps(dict(reset.iso.supp_map.mapping)).items():
            for m in maps:
                iso = DerivationIso(ZeroOneIso(m), reset.iso.axiom_isos)
                assert_reference_verdict(c1, c2, iso, interfaces)
                counts[kind] = counts.get(kind, 0) + 1
    assert len(counts) == 4 and min(counts.values()) > 100, counts


def swapped_pairs(phi: ZeroOneIso, depth: int) -> list[ZeroOneIso]:
    """phi with the images of two sibling letters at the given depth
    exchanged, each subtree moving with its letter: one per parent."""
    m = dict(phi.mapping)
    siblings: dict[tuple, list[tuple]] = {}
    for a in m:
        if len(a) == depth + 1 and a[-1] >= 2:
            siblings.setdefault(a[:-1], []).append(a)
    return [ZeroOneIso(swap_letters(m, *kids[:2])) for kids in siblings.values() if len(kids) > 1]


def mutated_interfaces(c1, c2, iso: DerivationIso, interfaces) -> dict[str, list[tuple]]:
    """Wrong interface pairs for a right pair, each wrong at one node: two
    root letters or two letters one level down swapped in the second
    interface, the second interface's identity replaced by another interface
    (the identity carried over, checked against a non-identity), and a root
    letter of the first interface sent off its left sequence."""
    interface1, interface2 = interfaces
    pairs = iso.supp_map.mapping
    out: dict[str, list[tuple]] = {}

    def add(kind: str, a, phi1, phi2) -> None:
        out.setdefault(kind, []).append(({**interface1, a: phi1}, {**interface2, pairs[a]: phi2}))

    for a in c1.app_positions():
        phi1, phi2 = interface1[a], interface2[pairs[a]]
        for depth, kind in ((0, "root letters swapped"), (1, "swapped one level down")):
            for wrong in swapped_pairs(phi2, depth)[:1]:
                add(kind, a, phi1, wrong)
        if phi2.is_identity():
            a2 = pairs[a]
            others = iter_type_isos(c2.left_seq(a2), c2.right_seq(a2))
            for other in itertools.islice(others, 1, 2):
                add("identity against a non-identity", a, phi1, other)
        if phi1.kids:
            k, kid = min(phi1.kids.items())
            off = max(c1.left_seq(a).tracks()) + 1
            kids = {**{j: x for j, x in phi1.kids.items() if j != k}, off: kid}
            add("a letter off the left sequence", a, ZeroOneIso.node(kids, tree=False), phi2)
    return out


def test_mutated_interfaces_get_the_reference_verdict(monkeypatch):
    """The commuting square, tested by one walk, against the references'
    conjugates: on random resets and on trivializations, each interface pair
    made wrong at one node.  Many of the wrong pairs pass both interface
    checks, so the square alone rejects them."""
    squares = []
    commutes = JudgmentIsos.commutes

    def recording(self, *args):
        squares.append(commutes(self, *args))
        return squares[-1]

    monkeypatch.setattr(JudgmentIsos, "commutes", recording)
    rng = random.Random(CORPUS_SEED + 14)
    counts: dict[str, int] = {}
    for op in corpus_operables()[:150] + tower_operables() + wide_operables()[:5]:
        reset = reset_derivation(op.checked, random_relabelling(op.checked, rng), op.interface)
        result = trivialize(op)
        trivial = result.trivial
        identities = {a: identity_iso(trivial.left_seq(a)) for a in trivial.app_positions()}
        for c2, iso, interface2 in (
            (reset.checked, reset.iso, reset.interface),
            (trivial, result.iso, identities),
        ):
            interfaces = (op.interface, interface2)
            assert assert_reference_verdict(op.checked, c2, iso, interfaces)
            assert verify_derivation_iso(op.checked, c2, iso, *interfaces)
            for kind, wrong in mutated_interfaces(op.checked, c2, iso, interfaces).items():
                for pair in wrong[:3]:
                    assert_reference_verdict(op.checked, c2, iso, pair)
                    assert not verify_derivation_iso(op.checked, c2, iso, *pair)
                    counts[kind] = counts.get(kind, 0) + 1
    assert len(counts) == 4 and min(counts.values()) > 50, counts
    assert squares.count(False) > 100


def test_an_axiom_sent_onto_an_application_gets_the_reference_verdict():
    # a 01-isomorphism fixes the letters 0 and 1, so it maps every node onto
    # one at the same term position, with the same rule: a node of another
    # rule needs a second term.  Here v u and v (w u), the argument u sent
    # onto the application w u.
    o = SAtom("o")
    fun = SArrow(seq({2: o}), o)
    c1 = check_derivation(
        Derivation(
            parse_term("v u"),
            "S",
            {EPS: AppNode(frozenset({2})), (1,): AxNode(2, fun), (2,): AxNode(2, o)},
        )
    )
    c2 = check_derivation(
        Derivation(
            parse_term("v (w u)"),
            "S",
            {
                EPS: AppNode(frozenset({2})),
                (1,): AxNode(2, fun),
                (2,): AppNode(frozenset({2})),
                (2, 1): AxNode(2, fun),
                (2, 2): AxNode(2, o),
            },
        )
    )
    axiom_isos = {a: identity_iso(c1.type_at(a)) for a in c1.axiom_positions()}
    iso = DerivationIso(ZeroOneIso({a: a for a in c1.nodes}), axiom_isos)
    interfaces = (
        {EPS: identity_iso(c1.left_seq(EPS))},
        {a: identity_iso(c2.left_seq(a)) for a in c2.app_positions()},
    )
    assert assert_reference_verdict(c1, c1, iso, (interfaces[0], interfaces[0]))
    assert not assert_reference_verdict(c1, c2, iso, interfaces)
