"""Differential tests: the facts cached on type nodes against the old walks.

`reference_types` keeps `type_support`, `collapse_type`/`collapse_seq`,
`rkey`, `rderiv_key`, `equiv`, `threads._mutable_positions` and the
support-based `check_type_iso` as they were.  The cached facts and the
type-directed `check_type_iso` must agree with them:

- on every judgment type, context entry and left and right sequence of the
  500 hybrid acceptance derivations, the redex towers and `v (w u)^m` for
  m = 4..20, and on every R-node of their collapses;
- on hypothesis-generated types;
- in the order the `key` of the collapses sorts them in;
- for `check_type_iso`, in the verdict and in whether `DomainMismatchError`
  is raised, on true interfaces and identity isomorphisms and on the same
  mappings with a dropped key, an extra key, two swapped images, a bumped
  track, a key moved off the type, an extra leaf or a subtree moved onto a
  fresh track.  A mapping that no 01-isomorphism has cannot be built into a
  `ZeroOneIso` (`IsoShapeError`); the reference must reject it as well.
"""

from __future__ import annotations

import functools
import itertools
import random
from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from seqtypes.corpus import tower_instances
from seqtypes.derivations import CheckedDerivation, check_derivation, walk_R
from seqtypes.positions import DomainMismatchError, IsoShapeError, ZeroOneIso
from seqtypes.reduction import make_operable
from seqtypes.stypes import (
    SeqType,
    check_type_iso,
    equiv,
    identity_iso,
    iter_type_isos,
    seq,
)
from seqtypes.trivialize import random_relabelling, reset_derivation

import reference_types as ref
from reference_checker import lazy_judgments
from samples import make_wide
from test_stypes import stypes_strategy
from test_threads_differential import CORPUS_SEED, hybrid_operables


@functools.cache
def corpus() -> list[CheckedDerivation]:
    """The hybrid acceptance derivations, the redex towers and S_h
    relabellings of v (w u)^m for m = 4..20, each with its interface."""
    rng = random.Random(CORPUS_SEED + 9)
    operables = hybrid_operables() + tower_instances(CORPUS_SEED + 5, 20)
    for m in range(4, 21):
        base = check_derivation(make_wide(m))
        hybrid = reset_derivation(base, random_relabelling(base, rng), flavor="Sh").checked
        operables.append(make_operable(hybrid))
    return operables


def types_of(checked: CheckedDerivation) -> list:
    """Every judgment type and context entry, and every left and right
    sequence."""
    out = []
    judgments = lazy_judgments(checked)
    for a in sorted(checked.nodes):
        judgment = judgments[a]
        out.append(judgment.stype)
        out.extend(f for _, f in judgment.context.entries)
    for a in checked.app_positions():
        out += [checked.left_seq(a), checked.right_seq(a)]
    return out


def assert_same_facts(t) -> None:
    sup, (old_sup, _) = t.support, ref.type_support(t)
    assert type(sup) is type(old_sup)
    # the same iteration order too: `random_relabelling` draws in it
    assert list(sup) == list(old_sup)
    assert t.mutable_positions == tuple(ref._mutable_positions(t))
    if isinstance(t, SeqType):
        new, old = t.collapse, ref.collapse_seq(t)
        assert [ref.rkey(r) for r in new] == [ref.rkey(r) for r in old]
        assert [r.key for r in new] == [ref.rkey(r) for r in new]
    else:
        new, old = t.collapse, ref.collapse_type(t)
        assert ref.rkey(new) == ref.rkey(old)
        assert new.key == ref.rkey(new)


def iso_outcome(check, t1, t2, iso) -> object:
    try:
        return check(t1, t2, iso)
    except DomainMismatchError:
        return "domain mismatch"


def corruptions(mapping: dict, rng: random.Random) -> list[dict]:
    """The mapping with a dropped key, an extra key, two swapped images, a
    bumped track and a key moved off the type; the empty mapping only gets
    the extra key."""
    keys = sorted(mapping)
    if not keys:
        return [{(77,): (77,)}]
    dropped = dict(mapping)
    del dropped[rng.choice(keys)]
    extra = {**mapping, rng.choice(keys) + (77,): (77,)}
    swapped = dict(mapping)
    if len(keys) > 1:
        p, q = rng.sample(keys, 2)
        swapped[p], swapped[q] = mapping[q], mapping[p]
    bumped = dict(mapping)
    p = rng.choice([k for k in keys if k] or keys)
    image = mapping[p]
    bumped[p] = image[:-1] + (image[-1] + 1,) if image else (2,)
    # as many keys as positions, one of them off the type
    moved = dict(mapping)
    moved[p + (77,)] = moved.pop(p)
    # two that keep the shape of a 01-isomorphism: a new leaf on a fresh
    # track, and a mutable position's subtree sent onto a fresh track
    leaf = {**mapping, p + (77,): mapping[p] + (77,)}
    q = rng.choice([k for k in keys if k and k[-1] >= 2] or keys)
    b = mapping[q]
    fresh = b[:-1] + (77,) if b else b
    retracked = {c: fresh + c2[len(b):] if c2[: len(b)] == b else c2 for c, c2 in mapping.items()}
    return [dropped, extra, swapped, bumped, moved, leaf, retracked]


def compare_iso_checks(t1, t2, mapping: dict, rng: random.Random) -> tuple[int, int]:
    """Compare both checks on the mapping and its corruptions; returns the
    number of cases built into a `ZeroOneIso` and of True verdicts."""
    cases = trues = 0
    for candidate in [mapping] + corruptions(mapping, rng):
        expected = iso_outcome(ref.check_type_iso, t1, t2, candidate)
        try:
            iso = ZeroOneIso(candidate)
        except IsoShapeError:
            assert expected in (False, "domain mismatch"), candidate
            continue
        outcome = iso_outcome(check_type_iso, t1, t2, iso)
        assert outcome == expected, candidate
        cases += 1
        trues += outcome is True
    return cases, trues


def test_type_facts_match_reference_on_the_corpus():
    checked_list = [op.checked for op in corpus()]
    assert len(checked_list) == 537
    compared = 0
    for checked in checked_list:
        for t in types_of(checked):
            assert_same_facts(t)
            compared += 1
        for a in checked.app_positions():
            left, right = checked.left_seq(a), checked.right_seq(a)
            assert equiv(left, right) and ref.equiv(left, right)
            for k, s in left.items():
                for k2, s2 in right.items():
                    assert equiv(s, s2) == ref.equiv(s, s2)
        rd = checked.collapse[0]
        for _, node, _ in walk_R(rd.root, rd.term):
            assert node.key == ref.rderiv_key(node)
    assert compared > 15000


def test_rkey_order_matches_reference():
    collapses = [
        checked.type_at(a).collapse
        for checked in (op.checked for op in corpus())
        for a in sorted(checked.nodes)
    ]
    random.Random(CORPUS_SEED + 10).shuffle(collapses)
    new_order = [ref.rkey(r) for r in sorted(collapses, key=attrgetter("key"))]
    assert new_order == [ref.rkey(r) for r in sorted(collapses, key=ref.rkey)]
    assert len(set(new_order)) > 100


def test_check_type_iso_matches_reference_on_the_corpus():
    rng = random.Random(CORPUS_SEED + 11)
    cases = trues = 0
    for op in corpus():
        checked = op.checked
        for a, phi in op.interface.items():
            c, t = compare_iso_checks(checked.left_seq(a), checked.right_seq(a), phi.mapping, rng)
            cases, trues = cases + c, trues + t
        for a in sorted(checked.nodes):
            stype = checked.type_at(a)
            c, t = compare_iso_checks(stype, stype, identity_iso(stype).mapping, rng)
            cases, trues = cases + c, trues + t
    assert cases > 20000 and 0 < trues < cases


@settings(max_examples=150, deadline=None)
@given(stypes_strategy(), stypes_strategy(), st.integers(0, 2**32 - 1))
def test_type_facts_match_reference_on_generated_types(t1, t2, seed):
    rng = random.Random(seed)
    f = seq({2: t1, 5: t2, 6: t1})
    for t in (t1, t2, f):
        assert_same_facts(t)
    assert equiv(t1, t2) == ref.equiv(t1, t2)
    assert equiv(f, seq({3: t2, 4: t1, 9: t1})) == ref.equiv(f, seq({3: t2, 4: t1, 9: t1}))
    assert (t1.collapse.key < t2.collapse.key) == (
        ref.rkey(ref.collapse_type(t1)) < ref.rkey(ref.collapse_type(t2))
    )
    for u1, u2 in ((t1, t2), (t1, t1), (f, f), (t1, f), (f, t1)):
        candidates = [iso.mapping for iso in itertools.islice(iter_type_isos(u1, u2), 3)]
        candidates.append(identity_iso(u1).mapping)
        for mapping in candidates:
            compare_iso_checks(u1, u2, mapping, rng)
