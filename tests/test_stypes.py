from __future__ import annotations

import copy
import itertools
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtypes.derivations import (
    AbsNode,
    AxNode,
    Derivation,
    JudgmentIsos,
    check_derivation,
    format_judgment,
)
from seqtypes.positions import EPS, DomainMismatchError, IsoShapeError, ZeroOneIso
from seqtypes.terms import parse_term
from seqtypes.stypes import (
    EMPTY_SEQ,
    RArrow,
    RAtom,
    SArrow,
    SAtom,
    SeqType,
    TypeSyntaxError,
    check_type_iso,
    equiv,
    identity_iso,
    iter_type_isos,
    parse_seq_type,
    parse_type,
    print_rtype,
    print_type,
    relabel_type,
    rarrow,
    rmultiset,
    seq,
)

from reference_types import check_01_iso, type_support

O = SAtom("o")
O1 = SAtom("o1")
O2 = SAtom("o2")
O3 = SAtom("o3")
OP = SAtom("o'")

# Two 01-isomorphic labelled trees:
T1 = SArrow(seq({8: O2, 4: SArrow(seq({8: O3, 3: O1}), O2)}), O1)
T2 = SArrow(seq({5: SArrow(seq({7: O1, 2: O3}), O2), 3: O2}), O1)


def test_type_support_example():
    arrow = SArrow(seq({8: O, 3: OP, 2: O}), OP)
    assert {EPS, (1,), (2,), (3,), (8,)} <= arrow.support


def test_type_support_atom_and_sample_tree():
    assert O.support == frozenset({EPS})
    assert T1.support == frozenset(
        {EPS, (1,), (4,), (8,), (4, 1), (4, 3), (4, 8)}
    )


def test_collapse_type():
    t = SArrow(seq({7: O1, 3: O2, 2: O1}), O)
    assert t.collapse == rarrow([RAtom("o1"), RAtom("o2"), RAtom("o1")], RAtom("o"))
    assert O.collapse == RAtom("o")
    expected = rarrow(
        [RAtom("o2"), rarrow([RAtom("o1"), RAtom("o3")], RAtom("o2"))], RAtom("o1")
    )
    assert T1.collapse == expected
    assert T2.collapse == expected


def test_collapse_invariant_under_permutation():
    t1 = SArrow(seq({7: O1, 3: O2, 2: O1}), O)
    t2 = SArrow(seq({9: O2, 7: O1, 6: O1}), O)
    t3 = SArrow(seq({7: O2, 3: O1, 2: O1}), O)
    assert t1.collapse == t2.collapse == t3.collapse


def test_equiv_and_listed_iso():
    assert equiv(T1, T2)
    isos = list(iter_type_isos(T1, T2))
    listed = {
        EPS: EPS,
        (1,): (1,),
        (4,): (5,),
        (4, 1): (5, 1),
        (4, 3): (5, 7),
        (4, 8): (5, 2),
        (8,): (3,),
    }
    assert any(iso.mapping == listed for iso in isos)
    assert equiv(T1, T1)


def test_enumerate_type_isos_two_entries():
    f1 = seq({2: O, 3: O})
    f2 = seq({5: O, 7: O})
    isos = list(iter_type_isos(f1, f2))
    assert len(isos) == 2
    for iso in isos:
        assert check_type_iso(f1, f2, iso)


def brute_type_isos(t1, t2):
    sup1, lab1 = type_support(t1)
    sup2, lab2 = type_support(t2)
    xs, ys = sorted(sup1), sorted(sup2)
    if len(xs) != len(ys):
        return []
    out = []
    for perm in itertools.permutations(ys):
        phi = dict(zip(xs, perm))
        if check_01_iso(sup1, sup2, phi, lab1, lab2):
            out.append(tuple(sorted(phi.items())))
    return sorted(out)


def test_enumeration_complete_against_brute_force():
    got = sorted(iso.key() for iso in iter_type_isos(T1, T2))
    assert got == brute_type_isos(T1, T2)


def test_parse_print_round_trip():
    assert parse_type("(2:o, 7:o) -> o'") == SArrow(seq({2: O, 7: O}), OP)
    assert parse_type("o") == O
    for text in [
        "o",
        "(2:o, 7:o) -> o'",
        "() -> o",
        "(2:(3:o) -> o') -> (2:o) -> o",
    ]:
        t = parse_type(text)
        assert parse_type(print_type(t)) == t
        assert print_type(parse_type(print_type(t))) == print_type(t)
    assert parse_seq_type("(2:o, 3:o')") == seq({2: O, 3: OP})
    assert parse_seq_type("()") == EMPTY_SEQ
    with pytest.raises(TypeSyntaxError):
        parse_type("(1:o) -> o")
    with pytest.raises(TypeSyntaxError):
        parse_type("o ->")


@pytest.mark.parametrize(
    "parse, text, message, offset",
    [
        (parse_type, "(1:o) -> o", "sequence tracks are >= 2", 1),
        (parse_type, "o ->", "trailing input '->'", 2),
        (parse_type, "o $", "unexpected character '$'", 2),
        (parse_type, "o - > o", "unexpected character '-'", 2),
        (parse_type, "_o", "unexpected character '_'", 0),
        (parse_type, "'o", "unexpected character \"'\"", 0),
        (parse_type, "(2 o) -> o", "expected ':' after track", 3),
        (parse_type, "(o) -> o", "expected a track number", 1),
        (parse_type, "(2:o,) -> o", "expected a track number", 5),
        (parse_type, "(2:o 3:o) -> o", "expected ',' or ')'", 5),
        (parse_type, "(2:o) o", "expected '->' after sequence", 6),
        (parse_type, "(2:o) -> (3:o)", "expected '->' after sequence", 14),
        (parse_type, "o o", "trailing input 'o'", 2),
        (parse_type, "", "unexpected token ''", 0),
        (parse_type, "() ->", "unexpected token ''", 5),
        (parse_type, "->", "unexpected token '->'", 0),
        (parse_type, "2", "unexpected token '2'", 0),
        (parse_seq_type, "o", "expected '('", 0),
        (parse_type, "(02:o) -> o", "a track has no leading zero", 1),
        (parse_type, "(2:o, 010:o) -> o", "a track has no leading zero", 6),
        (parse_type, "(00:o) -> o", "a track has no leading zero", 1),
        (parse_type, "(\u0662:o) -> o", "unexpected character '\u0662'", 1),
        (parse_type, "(2:o, 2:o') -> o", "duplicate track in sequence type", 6),
    ],
)
def test_parse_error_messages_and_offsets(parse, text, message, offset):
    with pytest.raises(TypeSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"{message} (at offset {offset})"


atoms = st.sampled_from([O, OP, O1, O2])


def stypes_strategy():
    return st.recursive(
        atoms,
        lambda sub: st.builds(
            SArrow,
            st.lists(st.tuples(st.integers(2, 5), sub), max_size=3).map(
                lambda entries: seq(dict(entries))
            ),
            sub,
        ),
        max_leaves=5,
    )


@settings(max_examples=60)
@given(stypes_strategy(), stypes_strategy())
def test_three_way_agreement(t1, t2):
    """equiv <=> non-empty iso set <=> equal collapses, which hash equal."""
    same_collapse = t1.collapse == t2.collapse
    assert equiv(t1, t2) == same_collapse
    if same_collapse:
        assert hash(t1.collapse) == hash(t2.collapse)
    isos = list(iter_type_isos(t1, t2))
    assert bool(isos) == same_collapse
    for iso in isos[:4]:
        assert check_type_iso(t1, t2, iso)


@settings(max_examples=40)
@given(stypes_strategy(), stypes_strategy())
def test_collapse_of_union_is_multiset_sum(s1, s2):
    f1, f2 = seq({2: s1, 5: s2}), seq({3: s2})
    union = seq(f1.entries + f2.entries)
    assert union.collapse == rmultiset(
        list(f1.collapse) + list(f2.collapse)
    )


# deep enough to hit Python's default recursion limit (1,000) many times over
DEEP = 10_000
# the positions of a type nested n deep hold about n^2 letters (0.8 GB at
# 10,000), so the walks that list positions run at twice the recursion limit
DEEP_POSITIONS = 2_000


def deep_type(n: int, bottom: SAtom = O):
    """A type nested n deep, alternately through a target and a source."""
    t = bottom
    for i in range(n):
        t = SArrow(seq({2: t}), O1) if i % 2 else SArrow(seq({3: O2}), t)
    return t


def test_same_type_is_equality_at_any_depth():
    texts = ["o", "o'", "() -> o", "(2:o) -> o", "(3:o) -> o", "(2:o') -> o", "(2:o, 3:o) -> o"]
    def parsed():
        return [parse_type(text) for text in texts] + [parse_seq_type("(2:o)"), seq({})]

    # each type against a copy parsed separately, so no walk stops at a shared object
    for i, t1 in enumerate(parsed()):
        for j, t2 in enumerate(parsed()):
            assert (t1 == t2) == (i == j) == (not t1 != t2)
            if i == j:
                assert hash(t1) == hash(t2)
    assert O != RAtom("o") and O != "o"
    # two deep types built separately share no node but the atoms
    t1, t2, shallower = deep_type(DEEP), deep_type(DEEP), deep_type(DEEP - 1)
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 != shallower and not t1 == shallower
    assert {t1, shallower} == {t2, deep_type(DEEP - 1)}
    assert {t1: "deep"}[t2] == "deep" and shallower not in {t1: "deep"}


def test_equiv_at_any_depth():
    assert sys.getrecursionlimit() <= 1000
    # the collapses of two types built separately share no node but atoms
    t1, t2, other = deep_type(DEEP), deep_type(DEEP), deep_type(DEEP, bottom=O1)
    assert t1.collapse is not t2.collapse
    assert equiv(t1, t2) and equiv(seq({2: t1}), seq({5: t2}))
    assert t1.collapse == t2.collapse and {t1.collapse: 1}[t2.collapse] == 1
    assert not equiv(t1, other) and not equiv(t1, deep_type(DEEP - 1))
    # past the recursion limit the keys are walked, to the first difference
    from seqtypes.stypes import _same_keys

    assert _same_keys(t1.collapse.key, t2.collapse.key)
    assert not _same_keys(t1.collapse.key, other.collapse.key)


def test_parse_type_does_not_recurse():
    assert sys.getrecursionlimit() <= 1000
    text = print_type(deep_type(DEEP))
    assert print_type(parse_type(text)) == text
    assert print_type(parse_seq_type(f"(5:{text})")) == f"(5:{text})"


def test_one_track_with_two_types_is_a_duplicate_track():
    # the (track, type) pairs were sorted whole, so two types on one track
    # were compared and raised a TypeError before the duplicate was seen
    for text in ["(2:o, 2:p) -> o", "(2:o, 2:o) -> o", "(3:(2:o) -> o, 2:o, 3:p) -> o"]:
        with pytest.raises(ValueError, match="duplicate track in sequence type"):
            parse_type(text)


@pytest.mark.parametrize(
    "tracks, message",
    [
        ((1,), "sequence tracks are >= 2"),
        ((2, 2), "duplicate track in sequence type"),
        ((3, 2), "sequence entries must be sorted by track"),
        ((3, 3, 1), "sequence tracks are >= 2"),
        ((4, 2, 2), "duplicate track in sequence type"),
        ((2, 5, 4), "sequence entries must be sorted by track"),
    ],
)
def test_a_sequence_type_raises_the_first_of_its_three_checks(tracks, message):
    # one loop passes tracks strictly increasing from 2; any other input
    # meets the three checks in their order
    with pytest.raises(ValueError, match=message):
        SeqType(tuple((k, O) for k in tracks))
    assert SeqType(((2, O), (5, O1))).tracks() == [2, 5]


def test_type_facts_do_not_recurse():
    assert sys.getrecursionlimit() <= 1000
    t = deep_type(DEEP)
    # walk the collapse down the same path; comparing two distinct keys this
    # deep would itself recurse
    r, u = t.collapse, t
    while isinstance(u, SArrow):
        assert isinstance(r, RArrow) and len(r.source) == 1
        r, u = (r.source[0], u.source.get(2)) if 2 in u.source.tracks() else (r.target, u.target)
    assert r == RAtom("o")
    # the printers: each level wraps the text of the one below
    source, target = (("(2:", ") -> o1"), ("[", "] -> o1")), (("(3:o2) -> ", ""), ("[o2] -> ", ""))
    wraps = [source if i % 2 else target for i in range(DEEP)]
    for printer, u, j in ((print_type, t, 0), (print_rtype, t.collapse, 1)):
        prefixes, suffixes = zip(*(w[j] for w in wraps))
        assert printer(u) == "".join(reversed(prefixes)) + "o" + "".join(suffixes)
    judgment = check_derivation(Derivation(parse_term("x"), "S", {EPS: AxNode(2, t)})).conclusion()
    text = print_type(t)
    assert format_judgment(judgment) == f"x:(2:{text}) |- x : {text}"
    t = deep_type(DEEP_POSITIONS)
    sup = t.support
    assert len(sup) == 2 * DEEP_POSITIONS + 1
    assert len(t.mutable_positions) == DEEP_POSITIONS
    assert t.mutable_positions == tuple(sorted(t.mutable_positions))
    identity = identity_iso(t)
    assert check_type_iso(t, t, identity)
    # the deepest leaf on a mutable track, moved to a track t lacks there
    deepest = max(sup, key=lambda a: (len(a), a[-1:]))
    wrong = {**identity.mapping, deepest: deepest[:-1] + (7,)}
    assert not check_type_iso(t, t, ZeroOneIso(wrong))
    target = deepest[:-1] + (1,)
    with pytest.raises(IsoShapeError, match="not a bijection fixing 0 and 1"):
        ZeroOneIso({**identity.mapping, target: deepest[:-1] + (8,)})
    del wrong[deepest]
    with pytest.raises(DomainMismatchError):
        check_type_iso(t, t, ZeroOneIso(wrong))


def test_isos_2000_deep_compare_and_hash_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    t = deep_type(DEEP_POSITIONS)
    sup = t.support
    identity = identity_iso(t)
    # \x. x with its axiom typed t and no isomorphism given: the identity
    nodes = {EPS: AbsNode(), (0,): AxNode(2, t)}
    checked = check_derivation(Derivation(parse_term("\\x. x"), "S", nodes))
    judged = JudgmentIsos(checked, {})
    routes = [
        identity,
        ZeroOneIso({a: a for a in sup}),
        relabel_type(t, {a: a[-1] for a in t.mutable_positions})[1],
        judged.iso((0,)),
        judged.iso(EPS).restrict(1),
        identity.inverse().compose(identity),
    ]
    assert all(phi == identity and hash(phi) == hash(identity) for phi in routes)
    assert len(set(routes)) == 1 and all(phi.is_identity() for phi in routes)
    assert judged.iso(EPS) == identity_iso(checked.type_at(EPS))
    # one mutable track moved at the bottom: unequal, and the moves undo
    deepest = max(t.mutable_positions, key=len)
    moved = relabel_type(t, {a: 9 if a == deepest else a[-1] for a in t.mutable_positions})[1]
    assert moved != identity and not moved.is_identity()
    assert moved(deepest) == deepest[:-1] + (9,)
    assert moved.inverse().compose(moved) == identity
    assert hash(moved.compose(identity)) == hash(moved)


def test_first_iso_of_two_10000_deep_types_is_the_identity():
    assert sys.getrecursionlimit() <= 1000
    t1, t2 = deep_type(DEEP), deep_type(DEEP)
    assert t1 is not t2 and t1.source is not t2.source
    phi = next(iter_type_isos(t1, t2))
    assert phi.is_identity() and phi == identity_iso(t1)


def test_only_iso_onto_a_2000_deep_relabelling_is_the_relabelling():
    assert sys.getrecursionlimit() <= 1000
    t = deep_type(DEEP_POSITIONS)
    u, phi = relabel_type(t, {a: 2 + (a[-1] + len(a)) % 7 for a in t.mutable_positions})
    assert not phi.is_identity()
    assert list(iter_type_isos(t, u)) == [phi]


def test_cached_facts_are_read_only():
    f = seq({2: T1, 3: O})
    with pytest.raises(TypeError):
        f.mutable_positions[0] = (9,)
    assert isinstance(f.support, frozenset)
    assert f.support is f.support
    assert f.collapse is f.collapse
    # the identity isomorphism is kept on the type and its mapping is read-only
    assert identity_iso(f) is identity_iso(f)
    with pytest.raises(TypeError):
        identity_iso(f).mapping[(9,)] = (9,)
    assert (9,) not in identity_iso(f).mapping
    # so are its letter maps, shared by every type holding these nodes
    for iso in (identity_iso(f), identity_iso(f).restrict(2), ZeroOneIso({EPS: EPS})):
        with pytest.raises(TypeError):
            iso.kids[9] = (9, iso)  # type: ignore[index]
    assert 9 not in ZeroOneIso({}).kids
    for iso in (identity_iso(f), identity_iso(T1)):
        assert pickle.loads(pickle.dumps(iso)) == iso == copy.deepcopy(iso)
    # the facts are not part of a pickle or a copy
    assert pickle.loads(pickle.dumps(f)) == f == copy.deepcopy(f)
    assert "support" not in copy.deepcopy(f).__dict__


def test_facts_of_a_shared_subtype_are_computed_once():
    # 3^61 / 2 positions over 61 distinct nodes: one visit per node, not per path
    t = O
    for _ in range(60):
        t = SArrow(seq({2: t, 3: t}), t)
    r = t.collapse
    assert r.source[0] is r.source[1] is r.target
