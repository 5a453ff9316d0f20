"""Differential tests: the lazy isomorphism enumerator against the eager one.

`reference_isos` keeps the group-and-permute enumerators.  The lazy
`iter_01_isos` must yield exactly their sorted lists (so its first element
is the old `[0]`) on the interfaces and labelled derivation supports of the
hybrid acceptance corpus, on the equal-typed family (all k! interfaces for
k = 3..7), on the wide family (`v (w u)^m`, m = 4..20), on the redex towers
and on random labelled trees and forests; root interfaces, root-map
validation and width shapes must match too, and so must the R-choices of
the criterion-5 instances against `reference_rwalk`.  The scale tests pin what laziness buys:
the least interface of k equal-typed arguments without k! work, one
derivation of `v (w u)^8` without 10^8 shapes, and one support isomorphism
and one type isomorphism per axiom drawn for `limit=1`; the lazy product of
axiom isomorphisms must give the eager product's list.  Four tests pin
how `iter_type_isos` takes the least isomorphism, by one walk over the
types' cached class hashes: it lists the reference's isomorphisms even
when every class hash collides, listing runs no enumerator where the walk
shows the least isomorphism is the only one, `make_operable` calls no
enumerator on the wide family or the hybrid corpus, and it handles a type
nested 10,000 deep.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtypes.corpus import sr_corpus
from seqtypes.derivations import (
    AppNode,
    AxNode,
    CheckedDerivation,
    Derivation,
    GenBudget,
    _shapes,
    check_derivation,
    collapse_derivation,
    generate_normal_form_derivations,
)
from seqtypes.positions import EPS, iter_01_isos
from seqtypes.reduction import (
    ReductionError,
    default_interface,
    enumerate_r_choices,
    interfaces_at,
    make_operable,
    reduce_R,
    root_interfaces_at,
)
from seqtypes.stypes import SArrow, SAtom, iter_type_isos, parse_seq_type, print_type, seq
from seqtypes.terms import parse_term, redexes
from seqtypes.trivialize import (
    enumerate_derivation_isos,
    random_relabelling,
    reset_derivation,
    support_children,
    support_label,
    verify_derivation_iso,
)

import reference_isos as ref
import reference_rwalk as ref_rwalk
from reference_relabelling import Relabelling01, apply_relabelling
from reference_types import type_support
from samples import make_equal_typed, make_wide
from test_judgment_isos_differential import tower_operables, wide_operables
from test_reduction_differential import choice_instances
from test_rwalk_differential import positional_choice

CORPUS_SEED = 20250809


def hybrid_pairs() -> list[tuple[CheckedDerivation, CheckedDerivation]]:
    """The 500 acceptance derivations, each with its hybrid perturbation."""
    rng = random.Random(CORPUS_SEED + 1)
    return [
        (checked, reset_derivation(checked, random_relabelling(checked, rng), flavor="Sh").checked)
        for checked in sr_corpus(CORPUS_SEED, 500, size=7, width=2)
    ]


def family_pairs() -> list[tuple[CheckedDerivation, CheckedDerivation]]:
    """Equal-typed k = 1..6 and wide m = 2..6, each with an S_h relabelling."""
    rng = random.Random(CORPUS_SEED + 9)
    bases = [make_equal_typed(k) for k in range(1, 7)] + [make_wide(m) for m in range(2, 7)]
    out = []
    for deriv in bases:
        checked = check_derivation(deriv)
        hybrid = reset_derivation(checked, random_relabelling(checked, rng), flavor="Sh").checked
        out.append((checked, hybrid))
    return out


def keys(isos) -> list[tuple]:
    return [phi.key() for phi in isos]


def reference_interfaces(checked: CheckedDerivation, a) -> list[tuple]:
    sup1, lab1 = type_support(checked.left_seq(a))
    sup2, lab2 = type_support(checked.right_seq(a))
    return keys(ref.enumerate_01_isos(sup1, sup2, lab1, lab2))


def assert_same_interfaces(checked: CheckedDerivation) -> None:
    for a in checked.app_positions():
        want = reference_interfaces(checked, a)
        assert keys(interfaces_at(checked, a)) == want
        assert default_interface(checked, a).key() == want[0]
        assert root_interfaces_at(checked, a) == ref.root_interfaces_at(checked, a)
        assert_same_root_validation(checked, a)


def assert_same_root_validation(checked: CheckedDerivation, a) -> None:
    """A root bijection is a root interface exactly when the reference finds
    a 01-iso for every pair of re-rooted subtrees (up to 4 roots)."""
    f1, lab1 = type_support(checked.left_seq(a))
    f2, lab2 = type_support(checked.right_seq(a))
    roots1, roots2 = checked.left_seq(a).tracks(), checked.right_seq(a).tracks()
    if len(roots1) > 4:
        return
    root_interfaces = root_interfaces_at(checked, a)
    for perm in itertools.permutations(roots2):
        mapping = dict(zip(roots1, perm))
        extends = all(ref.extends_to_01_iso(f1, f2, k, k2, lab1, lab2) for k, k2 in mapping.items())
        assert (mapping in root_interfaces) == extends, mapping


def assert_same_support_isos(c1: CheckedDerivation, c2: CheckedDerivation) -> None:
    lab1, lab2 = ref.derivation_labels(c1), ref.derivation_labels(c2)
    want = keys(ref.enumerate_01_isos(c1.support(), c2.support(), lab1, lab2))
    got = iter_01_isos((c1, EPS), (c2, EPS), support_children, support_label, True)
    assert keys(got) == want


def test_hybrid_corpus_interfaces_match_reference():
    pairs = hybrid_pairs()
    assert len(pairs) == 500
    for checked, hybrid in pairs:
        assert_same_interfaces(checked)
        assert_same_interfaces(hybrid)


def test_hybrid_corpus_support_isos_match_reference():
    for checked, hybrid in hybrid_pairs():
        assert_same_support_isos(checked, hybrid)
        assert_same_support_isos(hybrid, hybrid)


def test_families_match_reference():
    for checked, hybrid in family_pairs():
        assert_same_interfaces(checked)
        assert_same_interfaces(hybrid)
        assert_same_support_isos(checked, hybrid)


def test_wide_and_tower_interfaces_match_reference():
    """`v (w u)^m` for m = 4..20 relabelled into S_h, and the 20 redex towers."""
    for op in wide_operables() + tower_operables():
        assert_same_interfaces(op.checked)


@pytest.mark.parametrize("k", range(3, 8))
def test_all_interfaces_of_k_equal_typed_arguments_match_reference(k):
    base = check_derivation(make_equal_typed(k))
    hybrid = reset_derivation(base, random_relabelling(base, random.Random(k)), flavor="Sh").checked
    for checked in (base, hybrid):
        assert len(interfaces_at(checked, EPS)) == math.factorial(k)
        assert_same_interfaces(checked)


def test_choice_instances_match_reference():
    """Root interfaces at every application of the criterion-5 instances, and
    the R-choices at every redex of their R-choice sequences of length < 3
    and of what the sequences reach."""
    redexes_seen = choices_seen = 0
    for checked in choice_instances():
        for a in checked.app_positions():
            assert root_interfaces_at(checked, a) == ref.root_interfaces_at(checked, a)
        frontier = [collapse_derivation(checked)]
        for depth in range(3):
            extended = []
            for rd in frontier:
                for b in redexes(rd.term):
                    choices = enumerate_r_choices(rd, b)
                    want = ref_rwalk.enumerate_r_choices(rd, b)
                    assert choices == [positional_choice(c) for c in want]
                    redexes_seen += 1
                    choices_seen += len(choices)
                    if depth < 2:
                        extended += [reduce_R(rd, b, choice) for choice in choices]
            frontier = extended
    assert redexes_seen >= 80 and choices_seen >= 200


positions_st = st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple)


def labelled_support(ps, labels, forest: bool) -> tuple[frozenset, dict]:
    closed = {EPS}
    for p in ps:
        if forest and p[0] < 2:
            p = (p[0] + 2,) + p[1:]
        closed.update(p[:i] for i in range(len(p) + 1))
    if forest:
        closed.discard(EPS)
    return frozenset(closed), {a: labels[hash(a) % len(labels)] for a in closed}


def relabelled(supp: frozenset, labels: dict, rng: random.Random) -> tuple[frozenset, dict]:
    """Move every mutable track to a fresh one, siblings kept distinct."""
    assignment = {}
    for a in sorted(supp):
        if a and a[-1] >= 2:
            assignment[a] = a[-1] + 2 + rng.randrange(3) * 5
    image, phi = apply_relabelling(supp, Relabelling01(assignment))
    return image, {phi(a): label for a, label in labels.items()}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(positions_st, max_size=7),
    st.lists(positions_st, max_size=7),
    st.sampled_from(["a", "ab", "abc"]),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_random_labelled_forests_match_reference(ps, qs, labels, forest, seed):
    s1, lab1 = labelled_support(ps, labels, forest)
    s2, lab2 = relabelled(s1, lab1, random.Random(seed))
    s3, lab3 = labelled_support(qs, labels, forest)
    for u2, l2 in ((s2, lab2), (s3, lab3), (s1, lab1)):
        want = keys(ref.enumerate_01_isos(s1, u2, lab1, l2))
        assert keys(ref.support_isos(s1, u2, lab1, l2)) == want
        assert keys(ref.support_isos(s1, u2)) == keys(ref.enumerate_01_isos(s1, u2))
    assert list(ref.support_isos(s1, s2, lab1, lab2)), "a relabelling is an isomorphism"


@pytest.mark.parametrize(
    "term, width",
    [
        ("v (w u) (w u)", 2),
        ("v (w u) (w u)", 3),
        ("\\x. f (x y) (\\z. z y)", 2),
        ("f (g (h a) b) (k c)", 2),
        ("x", 3),
    ],
)
def test_shapes_match_reference(term, width):
    t = parse_term(term)
    assert list(_shapes(t, width)) == ref.shapes(t, width)


def test_first_derivation_of_a_wide_term_is_immediate():
    t = parse_term("v" + " (w u)" * 8)
    start = time.perf_counter()
    (deriv,) = generate_normal_form_derivations(t, GenBudget(limit=1))
    assert time.perf_counter() - start < 1.0
    check_derivation(deriv)


def test_least_interface_of_ten_equal_typed_arguments():
    """k = 10 has 3,628,800 interfaces; the least maps the sorted left
    tracks onto the sorted right tracks, order preserved."""
    base = check_derivation(make_equal_typed(10))
    hybrid = reset_derivation(base, random_relabelling(base, random.Random(3)), flavor="Sh").checked
    start = time.perf_counter()
    op = make_operable(hybrid)
    assert time.perf_counter() - start < 1.0
    left, right = hybrid.left_seq(EPS).tracks(), hybrid.right_seq(EPS).tracks()
    assert op.interface[EPS].mapping == {(k,): (k2,) for k, k2 in zip(sorted(left), sorted(right))}


def test_derivation_isos_stop_at_the_limit(monkeypatch):
    drawn = []

    def counting(*args):
        for phi in iter_01_isos(*args):
            drawn.append(phi)
            yield phi

    # the package exports a function named like the module, so import it by name
    monkeypatch.setattr(importlib.import_module("seqtypes.trivialize"), "iter_01_isos", counting)
    checked = check_derivation(make_equal_typed(6))
    assert len(enumerate_derivation_isos(checked, checked, limit=1)) == 1
    assert len(drawn) == 1


def symmetric_axioms(checked: CheckedDerivation) -> int:
    """The number of axioms whose type has more than one isomorphism."""
    types = [checked.type_at(a) for a in checked.axiom_positions()]
    return sum(len(list(iter_type_isos(t, t))) > 1 for t in types)


def test_derivation_isos_match_the_eager_product():
    """The lazy product yields the eager product's isomorphisms, in order, on
    the equal-typed family and on the 20 first hybrid acceptance derivations
    with two or more symmetric axioms, where the order of the factors shows."""
    rng = random.Random(CORPUS_SEED + 9)
    pairs = []
    for k in range(1, 6):
        checked = check_derivation(make_equal_typed(k))
        relab = random_relabelling(checked, rng)
        pairs.append((checked, reset_derivation(checked, relab, flavor="Sh").checked))
    pairs += [pair for pair in hybrid_pairs() if symmetric_axioms(pair[0]) >= 2][:20]
    assert len(pairs) == 25
    for c1, c2 in pairs:
        got = enumerate_derivation_isos(c1, c2, limit=64)
        assert got == ref.enumerate_derivation_isos(c1, c2, limit=64)
        assert got


def test_one_derivation_iso_of_nine_equal_typed_arguments():
    """The head axiom has 9! = 362,880 type isomorphisms; one is drawn."""
    base = check_derivation(make_equal_typed(9))
    hybrid = reset_derivation(base, random_relabelling(base, random.Random(5)), flavor="Sh").checked
    start = time.perf_counter()
    (iso,) = enumerate_derivation_isos(base, hybrid, limit=1)
    assert time.perf_counter() - start < 1.0
    assert verify_derivation_iso(base, hybrid, iso)


class _NotIsomorphic:
    """A stand-in derivation whose application sides cannot be matched."""

    def left_seq(self, a):
        return check_derivation(make_equal_typed(2)).left_seq(EPS)

    def right_seq(self, a):
        return check_derivation(make_equal_typed(3)).right_seq(EPS)


def test_default_interface_names_the_position():
    with pytest.raises(ReductionError, match="no interface at 1.2"):
        default_interface(_NotIsomorphic(), (1, 2))


STYPES = importlib.import_module("seqtypes.stypes")


def counting_enumerator(monkeypatch) -> list[int]:
    """Counts the calls `iter_type_isos` makes to `iter_01_isos`."""
    calls = [0]

    @functools.wraps(iter_01_isos)
    def counting(*args):
        calls[0] += 1
        return iter_01_isos(*args)

    monkeypatch.setattr(STYPES, "iter_01_isos", counting)
    return calls


def test_every_class_hash_colliding_changes_no_list(monkeypatch):
    """With one class hash for every type, the walk pairs entries of
    different classes, fails and hands over to `iter_01_isos`: the lists
    stay the reference's at every application node of the hybrid corpus,
    the 20 towers and equal-typed k = 1..6.  The sides are parsed anew
    under the patch, so no hash cached before it is read."""
    monkeypatch.setattr(STYPES, "_class_here", lambda u: 0)
    calls = counting_enumerator(monkeypatch)
    checked_list = [c for pair in hybrid_pairs() for c in pair]
    checked_list += [op.checked for op in tower_operables()]
    checked_list += [check_derivation(make_equal_typed(k)) for k in range(1, 7)]
    nodes = walked = 0
    for checked in checked_list:
        for a in checked.app_positions():
            left = parse_seq_type(print_type(checked.left_seq(a)))
            right = parse_seq_type(print_type(checked.right_seq(a)))
            before = calls[0]
            least = next(iter_type_isos(left, right))
            walked += calls[0] == before
            assert left._class == 0 and all(s._class == 0 for _, s in right.entries)
            want = reference_interfaces(checked, a)
            assert least.key() == want[0]
            assert keys(iter_type_isos(left, right)) == want
            nodes += 1
    assert nodes > 800 and 0 < walked < nodes


def test_listing_a_single_interface_calls_no_enumerator(monkeypatch):
    """`interfaces_at` runs `iter_01_isos` only where there is more than one
    interface: where the walk meets no two sibling entries of one class
    hash, its isomorphism is the only one.  On every application node of
    the hybrid corpus, the 20 towers and equal-typed k = 1..6."""
    calls = counting_enumerator(monkeypatch)
    checked_list = [hybrid for _, hybrid in hybrid_pairs()]
    checked_list += [op.checked for op in tower_operables()]
    checked_list += [check_derivation(make_equal_typed(k)) for k in range(1, 7)]
    single = several = 0
    for checked in checked_list:
        for a in checked.app_positions():
            before = calls[0]
            n = len(interfaces_at(checked, a))
            assert (calls[0] > before) == (n > 1), (a, n)
            single += n == 1
            several += n > 1
    assert single > 1000 and several > 100, (single, several)


def test_the_least_interface_calls_no_enumerator(monkeypatch):
    """`make_operable` on `v (w u)^m`, m = 2..20, and on the hybrid corpus
    takes every least interface by the walk alone."""
    calls = counting_enumerator(monkeypatch)
    checked_list = [check_derivation(make_wide(m)) for m in range(2, 21)]
    checked_list += [hybrid for _, hybrid in hybrid_pairs()]
    for checked in checked_list:
        make_operable(checked)
    assert calls[0] == 0


def test_the_least_interface_of_a_type_nested_10000_deep():
    """v u in flavor S, u of type T_10000, where T_0 = o and T_(n+1) =
    (2:T_n) -> o, built once for v's source and once for u."""

    def nested() -> SArrow:
        t = SAtom("o")
        for _ in range(10_000):
            t = SArrow(seq({2: t}), SAtom("o"))
        return t

    nodes = {
        EPS: AppNode(frozenset({2})),
        (1,): AxNode(2, SArrow(seq({2: nested()}), SAtom("o"))),
        (2,): AxNode(2, nested()),
    }
    checked = check_derivation(Derivation(parse_term("v u"), "S", nodes))
    op = make_operable(checked)
    iso = op.interface[EPS]
    assert len(iso.mapping) == 20_001
    assert iso.is_identity()
