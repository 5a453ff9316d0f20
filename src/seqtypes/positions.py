"""Words of tracks, supports and 01-isomorphisms.

Positions are finite words over the naturals.  Letters 0 and 1 are fixed
(structural) tracks; letters >= 2 are mutable argument tracks.  A support,
what terms, types and derivations live on, is a prefix-closed frozenset of
positions: a tree holds `EPS`, a forest (a sequence type's, a tree minus its
root) does not.  01-isomorphisms are the track-renaming bijections that
leave the fixed tracks alone, enumerated lazily in key order by
`iter_01_isos`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

Position = tuple[int, ...]
Track = int

EPS: Position = ()


class DomainMismatchError(ValueError):
    """The candidate mapping is not even defined on the right support."""


def collapse_position(a: Position) -> Position:
    return tuple(min(k, 2) for k in a)


def applicative_depth(a: Position) -> int:
    """Number of argument tracks (letters >= 2) in the word."""
    return sum(1 for k in a if k >= 2)


def is_prefix(a: Position, b: Position) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def parse_position(text: str) -> Position:
    text = text.strip()
    if text in ("eps", ""):
        return EPS
    try:
        letters = tuple(int(part) for part in text.split("."))
    except ValueError:
        raise ValueError(f"bad position syntax: {text!r}") from None
    if any(k < 0 for k in letters):
        raise ValueError(f"negative track in position: {text!r}")
    return letters


def format_position(a: Position) -> str:
    return "eps" if not a else ".".join(str(k) for k in a)


@dataclass(frozen=True)
class ZeroOneIso:
    """A prefix-monotone, length-preserving bijection fixing tracks 0 and 1.

    The one isomorphism value: maps of derivation supports, type
    isomorphisms and interfaces are all instances of it.
    """

    mapping: dict[Position, Position]

    def __call__(self, a: Position) -> Position:
        return self.mapping[a]

    def inverse(self) -> "ZeroOneIso":
        return ZeroOneIso({v: k for k, v in self.mapping.items()})

    def compose(self, inner: "ZeroOneIso") -> "ZeroOneIso":
        """self o inner."""
        return ZeroOneIso({a: self.mapping[b] for a, b in inner.mapping.items()})

    def key(self) -> tuple:
        return tuple(sorted(self.mapping.items()))

    def roots(self) -> dict[Track, Track]:
        """Rt(phi): the bijection it induces on the tracks of length-1 positions."""
        return {a[0]: b[0] for a, b in self.mapping.items() if len(a) == 1}


def check_01_iso(
    u1: frozenset[Position],
    u2: frozenset[Position],
    phi: ZeroOneIso,
    labels1: Optional[Mapping[Position, str]] = None,
    labels2: Optional[Mapping[Position, str]] = None,
) -> bool:
    """Check the 01-isomorphism clauses; raise on a domain mismatch.

    The labelled clause is checked only when both label maps are supplied.
    """
    mapping = phi.mapping
    if set(mapping) != u1:
        raise DomainMismatchError("mapping domain differs from the first support")
    image = set(mapping.values())
    if len(image) != len(mapping) or image != u2:
        return False
    for a, b in mapping.items():
        if len(a) != len(b):
            return False
        if a:
            parent_image = mapping.get(a[:-1], EPS if len(a) == 1 else None)
            if parent_image is None or b[:-1] != parent_image:
                return False
            if a[-1] in (0, 1) and b[-1] != a[-1]:
                return False
    if labels1 is not None and labels2 is not None:
        for a, b in mapping.items():
            if labels1.get(a) != labels2.get(b):
                return False
    return True


def _class_ids(
    positions: frozenset[Position],
    labels: Optional[Mapping[Position, str]],
    table: dict[tuple, int],
) -> dict[Position, int]:
    """One class id per position, computed bottom-up (Aho, Hopcroft, Ullman).

    The key of a position is its label, its fixed children's ids by track
    and the sorted ids of its mutable children.  Supports that share the
    table get equal ids exactly for isomorphic labelled subtrees.
    """
    below: dict[Position, list[Position]] = {}
    for a in sorted(positions):
        if a:
            below.setdefault(a[:-1], []).append(a)
    ids: dict[Position, int] = {}
    for a in sorted(positions, key=len, reverse=True):
        kids = below.get(a, ())
        key = (
            labels.get(a) if labels is not None else None,
            tuple((b[-1], ids[b]) for b in kids if b[-1] < 2),
            tuple(sorted(ids[b] for b in kids if b[-1] >= 2)),
        )
        ids[a] = table.setdefault(key, len(table))
    return ids


def iter_01_isos(
    u1: frozenset[Position],
    u2: frozenset[Position],
    labels1: Optional[Mapping[Position, str]] = None,
    labels2: Optional[Mapping[Position, str]] = None,
) -> Iterator[ZeroOneIso]:
    """The 01-isomorphisms from u1 onto u2, lazily, in increasing `key()` order.

    The supports must be prefix-closed.  Source positions are walked in sorted
    order, which is preorder, and each is mapped to the least free target
    child of the same class; backtracking runs on an explicit stack.  Since
    equal classes mean isomorphic subtrees, every partial map extends, so
    the isomorphisms come out in order without a sort and none is built in
    vain.  The first one costs O(n log n) in the size n of the supports,
    plus a scan quadratic in the size of each group of same-class siblings;
    each later one costs at most as much again.
    """
    t1, t2 = u1 | {EPS}, u2 | {EPS}
    table: dict[tuple, int] = {}
    cls1, cls2 = _class_ids(t1, labels1, table), _class_ids(t2, labels2, table)
    if cls1[EPS] != cls2[EPS]:
        return
    targets: dict[tuple[Position, int], list[Position]] = {}
    for b in sorted(t2):
        if b and b[-1] >= 2:
            targets.setdefault((b[:-1], cls2[b]), []).append(b)
    order = sorted(t1)
    n, start = len(order), 0 if EPS in u1 else 1
    index = {a: i for i, a in enumerate(order)}
    parent = [index[a[:-1]] if a else -1 for a in order]
    image: list[Optional[Position]] = [None] * n
    options: list = [(EPS,)] + [()] * (n - 1)
    tried = [0] * n
    used: set[Position] = set()
    i = 0
    while i >= 0:
        if image[i] is not None:
            used.discard(image[i])
            image[i] = None
        opts, j = options[i], tried[i]
        while j < len(opts) and opts[j] in used:
            j += 1
        if j == len(opts):
            i -= 1
            continue
        image[i], tried[i] = opts[j], j + 1
        used.add(opts[j])
        if i + 1 == n:
            yield ZeroOneIso(dict(zip(order[start:], image[start:])))
            continue
        i += 1
        a, b = order[i], image[parent[i]]
        options[i] = (b + a[-1:],) if a[-1] < 2 else targets[b, cls1[a]]
        tried[i] = 0
