from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtypes.positions import (
    EPS,
    DomainMismatchError,
    IsoShapeError,
    ZeroOneIso,
    applicative_depth,
    collapse_position,
    format_position,
    parse_position,
)
from seqtypes.derivations import AbsNode, AxNode, Derivation, JudgmentIsos, check_derivation
from seqtypes.stypes import RelabellingError, check_type_iso, parse_type, relabel_type
from seqtypes.terms import parse_term

from reference_isos import support_isos
from reference_types import check_01_iso, type_support

# Supports of two 01-isomorphic labelled trees used throughout:
# T1 = (8:o2, 4:(8:o3, 3:o1) -> o2) -> o1 and T2 = (5:(7:o1, 2:o3) -> o2, 3:o2) -> o1.
T1 = parse_type("(8:o2, 4:(8:o3, 3:o1) -> o2) -> o1")
T2 = parse_type("(5:(7:o1, 2:o3) -> o2, 3:o2) -> o1")
T1_SUPP = frozenset(
    {EPS, (1,), (4,), (8,), (4, 1), (4, 3), (4, 8)}
)
T1_LABELS = {
    EPS: "->",
    (1,): "o1",
    (4,): "->",
    (8,): "o2",
    (4, 1): "o2",
    (4, 3): "o1",
    (4, 8): "o3",
}
T2_SUPP = frozenset(
    {EPS, (1,), (3,), (5,), (5, 1), (5, 2), (5, 7)}
)
T2_LABELS = {
    EPS: "->",
    (1,): "o1",
    (3,): "o2",
    (5,): "->",
    (5, 1): "o2",
    (5, 2): "o3",
    (5, 7): "o1",
}
LISTED_PHI = ZeroOneIso(
    {
        EPS: EPS,
        (1,): (1,),
        (4,): (5,),
        (4, 1): (5, 1),
        (4, 3): (5, 7),
        (4, 8): (5, 2),
        (8,): (3,),
    }
)


def test_collapse_position():
    assert collapse_position((0, 5, 1, 3, 2)) == (0, 2, 1, 2, 2)
    assert collapse_position(EPS) == EPS
    assert collapse_position((1, 1, 0)) == (1, 1, 0)


def test_applicative_depth():
    assert applicative_depth((0, 3, 2, 1, 1)) == 2
    assert applicative_depth((0, 1, 0, 0, 1)) == 0
    assert applicative_depth(EPS) == 0


def test_position_text_round_trip():
    assert parse_position("0.3.2") == (0, 3, 2)
    assert parse_position("eps") == EPS
    assert format_position((0, 3, 2)) == "0.3.2"
    assert format_position(EPS) == "eps"
    with pytest.raises(ValueError):
        parse_position("0.x")


def test_a_colliding_candidate_is_no_iso():
    bad = dict(LISTED_PHI.mapping)
    bad[(8,)] = (5,)  # collides with the image of 4
    with pytest.raises(IsoShapeError, match="not a bijection fixing 0 and 1"):
        ZeroOneIso(bad)


def brute_force_isos(s1, s2, lab1=None, lab2=None):
    """Oracle: try every length-compatible bijection and filter by the clauses."""
    xs, ys = sorted(s1), sorted(s2)
    if len(xs) != len(ys):
        return []
    found = []
    for perm in itertools.permutations(ys):
        phi = dict(zip(xs, perm))
        try:
            if check_01_iso(s1, s2, phi, lab1, lab2):
                found.append(ZeroOneIso(phi).key())
        except DomainMismatchError:  # pragma: no cover
            pass
    return sorted(found)


def test_enumerate_matches_brute_force_on_sample_trees():
    got = [phi.key() for phi in support_isos(T1_SUPP, T2_SUPP, T1_LABELS, T2_LABELS)]
    assert sorted(got) == brute_force_isos(T1_SUPP, T2_SUPP, T1_LABELS, T2_LABELS)
    assert LISTED_PHI.key() in got


def test_enumerate_two_leaf_forests():
    f1 = frozenset({(2,), (3,)})
    f2 = frozenset({(5,), (7,)})
    isos = list(support_isos(f1, f2))
    assert len(isos) == 2
    assert sorted(phi.key() for phi in isos) == brute_force_isos(f1, f2)


def test_enumerate_chain_has_single_iso():
    chain = frozenset({EPS, (1,), (1, 1), (1, 1, 1)})
    isos = list(support_isos(chain, chain))
    assert len(isos) == 1
    assert isos[0].mapping == {a: a for a in chain}


def test_enumerate_cardinality_mismatch():
    assert list(support_isos(frozenset({(2,)}), frozenset({(5,), (7,)}))) == []


def test_enumerate_contains_identity():
    isos = list(support_isos(T1_SUPP, T1_SUPP))
    assert any(phi.mapping == {a: a for a in T1_SUPP} for phi in isos)
    for phi in isos:
        assert check_01_iso(T1_SUPP, T1_SUPP, phi.mapping)


def test_relabel_type_worked_example():
    t2, phi = relabel_type(T1, {(4,): 5, (4, 3): 7, (4, 8): 2, (8,): 3})
    assert t2 == T2
    assert phi.mapping == LISTED_PHI.mapping
    assert t2.support == T2_SUPP and type_support(t2) == (T2_SUPP, T2_LABELS)
    assert check_type_iso(T1, t2, phi)


def test_relabel_type_identity_and_shared_atoms():
    ident = {a: a[-1] for a in T1.mutable_positions}
    t, phi = relabel_type(T1, ident)
    assert t == T1
    assert phi.mapping == {a: a for a in T1_SUPP}
    u = parse_type("(2:o, 3:p) -> q")
    u2, psi = relabel_type(u, {(2,): 9, (3,): 4, (7, 2): 2})
    assert u2 == parse_type("(4:p, 9:o) -> q")
    assert psi.mapping == {EPS: EPS, (1,): (1,), (2,): (9,), (3,): (4,)}
    assert u2.source.get(9) is u.source.get(2) and u2.target is u.target
    atom = parse_type("o")
    assert relabel_type(atom, {}) == (atom, ZeroOneIso({EPS: EPS}))


def test_relabel_type_rejects_bad_tracks():
    u = parse_type("(2:o, 3:o) -> o")
    with pytest.raises(RelabellingError, match="siblings 2 and 3 both relabelled to 5"):
        relabel_type(u, {(2,): 5, (3,): 5})
    with pytest.raises(RelabellingError, match="new track 1 is not mutable"):
        relabel_type(u, {(2,): 5, (3,): 1})
    with pytest.raises(RelabellingError, match="undefined on 4.3"):
        relabel_type(T1, {(4,): 5, (8,): 3})


def test_roots_of_iso():
    assert LISTED_PHI.roots() == {1: 1, 4: 5, 8: 3}


positions_st = st.lists(st.integers(0, 4), max_size=4).map(tuple)


def tree_from_positions(ps):
    closed = {EPS}
    for p in ps:
        for i in range(len(p) + 1):
            closed.add(p[:i])
    return frozenset(closed)


@settings(max_examples=60, deadline=None)
@given(st.lists(positions_st, max_size=5))
def test_iso_properties_on_random_trees(ps):
    supp = tree_from_positions(ps)
    isos = list(support_isos(supp, supp))
    assert any(phi.mapping == {a: a for a in supp} for phi in isos)
    for phi in isos[:6]:
        assert check_01_iso(supp, supp, phi.mapping)
        for a in supp:
            b = phi(a)
            assert len(b) == len(a)
            assert applicative_depth(b) == applicative_depth(a)


def test_isos_built_by_every_route_are_equal_and_hash_equal():
    relabelled = relabel_type(T1, {(4,): 5, (4, 3): 7, (4, 8): 2, (8,): 3})[1]
    enumerated = support_isos(T1_SUPP, T2_SUPP, T1_LABELS, T2_LABELS)
    listed = next(phi for phi in enumerated if phi.key() == LISTED_PHI.key())
    # \x. x with its axiom typed T1 and moved by the listed iso onto track 9:
    # the abstraction's psi is one node over the axiom's, twice
    nodes = {EPS: AbsNode(), (0,): AxNode(2, T1)}
    checked = check_derivation(Derivation(parse_term("\\x. x"), "S", nodes))
    judged = JudgmentIsos(checked, {(0,): (9, relabelled)})
    from_dict = ZeroOneIso(dict(LISTED_PHI.mapping))
    routes = [LISTED_PHI, from_dict, relabelled, listed, judged.iso((0,))]
    assert all(phi == LISTED_PHI and hash(phi) == hash(LISTED_PHI) for phi in routes)
    assert len(set(routes)) == 1
    psi = judged.iso(EPS)
    assert psi.restrict(1) is psi.restrict(2) is relabelled
    expected = {EPS: EPS}
    for k, k2 in ((1, 1), (2, 9)):
        expected.update({(k,) + c: (k2,) + c2 for c, c2 in LISTED_PHI.mapping.items()})
    assert psi == ZeroOneIso(expected) and hash(psi) == hash(ZeroOneIso(expected))
    assert psi.mapping == expected
    # a tree and a forest with the same pairs differ, as do different letters
    assert ZeroOneIso({EPS: EPS}) != ZeroOneIso({})
    assert ZeroOneIso({(2,): (3,)}) != ZeroOneIso({(2,): (4,)})
    assert LISTED_PHI != LISTED_PHI.inverse()


@settings(max_examples=60, deadline=None)
@given(st.lists(positions_st, max_size=6), st.randoms(use_true_random=False))
def test_iso_operations_match_the_mappings(ps, rng):
    """call, inverse, compose, conjugate, restrict, roots, is_identity and
    hash on the shared-node isomorphisms agree with the same operations on
    their position mappings."""
    supp = tree_from_positions(ps)
    isos = list(itertools.islice(support_isos(supp, supp), 8))
    phi, psi, chi = (rng.choice(isos) for _ in range(3))
    m, n = dict(phi.mapping), dict(psi.mapping)
    assert all(phi(a) == b for a, b in m.items())
    assert phi.inverse().mapping == {b: a for a, b in m.items()}
    assert phi.compose(psi).mapping == {a: m[b] for a, b in n.items()}
    conjugated = {m[a]: chi(b) for a, b in n.items()}  # chi o psi o phi^-1
    assert psi.conjugate(phi, chi).mapping == conjugated
    assert phi.is_identity() == all(a == b for a, b in m.items())
    assert phi.roots() == {a[0]: b[0] for a, b in m.items() if len(a) == 1}
    for k in phi.kids:
        assert phi.restrict(k).mapping == {a[1:]: b[1:] for a, b in m.items() if a[:1] == (k,)}
    assert (phi == psi) == (m == n)
    if m == n:
        assert hash(phi) == hash(psi)


def test_node_checks_the_letters():
    leaf = ZeroOneIso({EPS: EPS})
    assert ZeroOneIso.node({1: (1, leaf), 2: (5, leaf)}) == ZeroOneIso(
        {EPS: EPS, (1,): (1,), (2,): (5,)}
    )
    moved = ({1: (2, leaf)}, {2: (1, leaf)}, {0: (0, leaf), 2: (0, leaf)})
    for kids in moved + ({2: (5, leaf), 3: (5, leaf)},):
        with pytest.raises(IsoShapeError):
            ZeroOneIso.node(kids)
    forest = ZeroOneIso.node({3: (4, leaf)}, tree=False)
    assert forest == ZeroOneIso({(3,): (4,)}) and not forest.tree
    with pytest.raises(KeyError):
        forest(EPS)
