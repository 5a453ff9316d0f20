"""The eager isomorphism enumerators, kept as reference oracles.

These are the original group-and-permute constructions: `enumerate_01_isos`
recomputes the canonical form `_canon` of every subtree at every recursion
level, takes the product of all permutations within every group of
equal-form siblings and sorts the whole list at the end;
`root_interfaces_at` does the same on the roots of an application's two
sequence types; `shapes` builds every width shape of a normal term before
the first one is used, as `listed_shapes`, the library's own listing before
it unranked, did by `itertools`; `enumerate_derivation_isos` lists every type
isomorphism of every axiom before taking their product.  `test_isos_differential.py` compares the lazy
enumerators of `seqtypes` against them.

The oracles take position sets with label dicts, and `iter_01_isos` takes
trees: `support_isos` runs `iter_01_isos` on two labelled position sets,
and `derivation_labels` gives the label dict of a derivation's support.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Optional

from seqtypes.derivations import _decompose_normal
from seqtypes.positions import EPS, Position, Track, ZeroOneIso, iter_01_isos
from seqtypes.stypes import iter_type_isos
from seqtypes.trivialize import (
    DerivationIso,
    support_children,
    support_label,
    verify_derivation_iso,
)

from reference_terms import alpha_key


def support_isos(u1, u2, labels1=None, labels2=None) -> Iterator[ZeroOneIso]:
    """`iter_01_isos` from the prefix-closed set u1 onto u2, each labelled by
    its dict or not at all; a node is a (side, position) pair."""
    below: dict[tuple[int, Position], list] = {}
    for side, u in enumerate((u1, u2)):
        for a in sorted(u):
            if a:
                below.setdefault((side, a[:-1]), []).append((a[-1], (side, a)))
    labels = (labels1 or {}, labels2 or {})
    return iter_01_isos(
        (0, EPS),
        (1, EPS),
        lambda node: below.get(node, ()),
        lambda node: labels[node[0]].get(node[1]),
        EPS in u1,
    )


def derivation_labels(c) -> dict[Position, str]:
    """Every position of the support with a text of its `support_label`,
    since the sorts below compare labels: an axiom's collapse by its key."""

    def text(a: Position) -> str:
        label = support_label((c, a))
        return label if isinstance(label, str) else f"ax{label.key}"

    return {a: text(a) for a in c.support()}


def _child_map(positions: frozenset[Position]) -> dict[Position, list[Track]]:
    children: dict[Position, list[Track]] = {a: [] for a in positions}
    children.setdefault(EPS, [])
    for a in positions:
        if a:
            children.setdefault(a[:-1], []).append(a[-1])
    for tracks in children.values():
        tracks.sort()
    return children


def _canon(
    pos: Position,
    children: dict[Position, list[Track]],
    labels: Optional[Mapping[Position, str]],
) -> tuple:
    label = labels.get(pos) if labels is not None else None
    fixed = tuple(
        (k, _canon(pos + (k,), children, labels))
        for k in children.get(pos, [])
        if k in (0, 1)
    )
    mutable = tuple(
        sorted(_canon(pos + (k,), children, labels) for k in children.get(pos, []) if k >= 2)
    )
    return (label, fixed, mutable)


def enumerate_01_isos(u1, u2, labels1=None, labels2=None) -> list[ZeroOneIso]:
    s1, s2 = frozenset(u1), frozenset(u2)
    is_forest = EPS not in s1
    t1 = s1 | {EPS}
    t2 = s2 | {EPS}
    ch1, ch2 = _child_map(t1), _child_map(t2)

    def go(p1: Position, p2: Position) -> list[dict[Position, Position]]:
        if _canon(p1, ch1, labels1) != _canon(p2, ch2, labels2):
            return []
        kids1, kids2 = ch1.get(p1, []), ch2.get(p2, [])
        parts: list[list[dict[Position, Position]]] = []
        for k in (0, 1):
            if (k in kids1) != (k in kids2):
                return []
            if k in kids1:
                parts.append(go(p1 + (k,), p2 + (k,)))
        groups1: dict[tuple, list[Track]] = {}
        groups2: dict[tuple, list[Track]] = {}
        for k in kids1:
            if k >= 2:
                groups1.setdefault(_canon(p1 + (k,), ch1, labels1), []).append(k)
        for k in kids2:
            if k >= 2:
                groups2.setdefault(_canon(p2 + (k,), ch2, labels2), []).append(k)
        if set(groups1) != set(groups2):
            return []
        for canon in sorted(groups1):
            xs, ys = groups1[canon], groups2[canon]
            if len(xs) != len(ys):
                return []
            group_alts: list[dict[Position, Position]] = []
            for perm in itertools.permutations(sorted(ys)):
                sub_parts = [go(p1 + (x,), p2 + (y,)) for x, y in zip(sorted(xs), perm)]
                for combo in itertools.product(*sub_parts):
                    merged: dict[Position, Position] = {}
                    for x, y in zip(sorted(xs), perm):
                        merged[p1 + (x,)] = p2 + (y,)
                    for sub in combo:
                        merged.update(sub)
                    group_alts.append(merged)
            parts.append(group_alts)
        results: list[dict[Position, Position]] = []
        for combo in itertools.product(*parts):
            merged = {p1: p2}
            for sub in combo:
                merged.update(sub)
            results.append(merged)
        return results

    raw = go(EPS, EPS)
    isos = []
    for mapping in raw:
        if is_forest:
            mapping = {a: b for a, b in mapping.items() if a != EPS}
        isos.append(ZeroOneIso(mapping))
    isos.sort(key=ZeroOneIso.key)
    return isos


def extends_to_01_iso(u1, u2, k: Track, k2: Track, labels1=None, labels2=None) -> bool:
    """The old `make_root_iso` test for one root pair: enumerate the 01-isos
    between the two re-rooted subtrees and see whether there is one."""
    s1, s2 = frozenset(u1), frozenset(u2)
    sub1 = frozenset(a[1:] for a in s1 if a[0] == k) | {EPS}
    sub2 = frozenset(a[1:] for a in s2 if a[0] == k2) | {EPS}
    lab1 = {a[1:]: v for a, v in labels1.items() if a and a[0] == k} if labels1 else None
    lab2 = {a[1:]: v for a, v in labels2.items() if a and a[0] == k2} if labels2 else None
    return bool(enumerate_01_isos(sub1, sub2, lab1, lab2))


def root_interfaces_at(checked, a: Position) -> list[dict[Track, Track]]:
    left, right = checked.left_seq(a), checked.right_seq(a)
    groups_l: dict[tuple, list[Track]] = {}
    groups_r: dict[tuple, list[Track]] = {}
    for k, s in left.items():
        groups_l.setdefault(s.collapse.key, []).append(k)
    for k, s in right.items():
        groups_r.setdefault(s.collapse.key, []).append(k)
    if set(groups_l) != set(groups_r):
        return []
    out: list[dict[Track, Track]] = [{}]
    for key in sorted(groups_l):
        xs, ys = sorted(groups_l[key]), groups_r[key]
        if len(xs) != len(ys):
            return []
        extended = []
        for perm in itertools.permutations(sorted(ys)):
            for base in out:
                extended.append({**base, **dict(zip(xs, perm))})
        out = extended
    return sorted(out, key=lambda rho: tuple(sorted(rho.items())))


def _combinations_with_replacement(items: list, r: int) -> list[tuple]:
    if r == 0:
        return [()]
    out = []

    def rec(start: int, acc: tuple) -> None:
        if len(acc) == r:
            out.append(acc)
            return
        for i in range(start, len(items)):
            rec(i, acc + (items[i],))

    rec(0, ())
    return out


def shapes(t, width: int) -> list:
    _, _, args = _decompose_normal(t)
    per_arg: list[list[tuple]] = []
    for arg in args:
        sub = shapes(arg, width)
        options: list[tuple] = []
        for w in range(width + 1):
            options.extend(_combinations_with_replacement(sub, w))
        per_arg.append(options)
    out: list[tuple] = []

    def product(i: int, acc: tuple) -> None:
        if i == len(per_arg):
            out.append(acc)
            return
        for option in per_arg[i]:
            product(i + 1, acc + (option,))

    product(0, ())
    return out


def listed_shapes(t, width: int):
    """The library's `_shapes` before shapes were unranked, verbatim but for
    its name: every option of every argument listed, then multiplied out."""
    _, _, args = _decompose_normal(t)
    per_arg = []
    for arg in args:
        sub = list(listed_shapes(arg, width))
        widths = range(width + 1)
        per_arg.append([c for w in widths for c in itertools.combinations_with_replacement(sub, w)])
    return itertools.product(*per_arg)


def enumerate_derivation_isos(c1, c2, limit: int = 64) -> list[DerivationIso]:
    """Support isomorphisms lazily, but each axiom's type isomorphisms as a
    whole list, multiplied out by the eager `itertools.product`."""
    if alpha_key(c1.term) != alpha_key(c2.term):
        return []
    out: list[DerivationIso] = []
    for supp_iso in iter_01_isos((c1, EPS), (c2, EPS), support_children, support_label, True):
        axiom_choices = []
        for a in c1.axiom_positions():
            isos = list(iter_type_isos(c1.type_at(a), c2.type_at(supp_iso(a))))
            axiom_choices.append([(a, t) for t in isos])
        for combo in itertools.product(*axiom_choices):
            candidate = DerivationIso(supp_iso, dict(combo))
            if verify_derivation_iso(c1, c2, candidate):
                out.append(candidate)
            if len(out) >= limit:
                return out
    return out
