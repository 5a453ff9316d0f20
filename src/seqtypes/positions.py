"""Words of tracks, supports and 01-isomorphisms.

Positions are finite words over the naturals.  Letters 0 and 1 are fixed
(structural) tracks; letters >= 2 are mutable argument tracks.  A support,
what terms, types and derivations live on, is a prefix-closed frozenset of
positions: a tree holds `EPS`, a forest (a sequence type's, a tree minus its
root) does not.  01-isomorphisms are the track-renaming bijections that
leave the fixed tracks alone, stored as trees of per-node letter maps that
share their subtrees, and enumerated lazily in key order by `iter_01_isos`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional

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


_FIXED = frozenset((0, 1))


class IsoShapeError(ValueError):
    """A position mapping that no 01-isomorphism has."""


class ZeroOneIso:
    """A 01-isomorphism: a prefix-preserving bijection fixing tracks 0 and 1.

    The one isomorphism value: maps of derivation supports, type
    isomorphisms and interfaces are all instances of it.  It is stored as
    the paper defines it, locally: `kids[k] = (k2, sub)` sends the child
    letter k of the root to k2, with the sub-isomorphism `sub` of the tree
    under k.  Sub-isomorphisms are shared, never copied: adding a prefix
    builds one node and `restrict` costs O(1).  `tree` says whether `EPS`
    is in the domain; a forest's root is not.  Every walk over it runs on an
    explicit stack and visits a shared sub-isomorphism once.
    """

    __slots__ = ("tree", "kids", "_ident", "_hash", "_mapping")

    tree: bool
    kids: Mapping[Track, tuple[Track, "ZeroOneIso"]]

    def __init__(self, mapping: Mapping[Position, Position]) -> None:
        """The isomorphism with this mapping, checked: `IsoShapeError` when
        no 01-isomorphism has it."""
        letters: dict[Position, dict[Track, Track]] = {EPS: {}}
        for a in sorted(mapping, key=len):
            b, parent = mapping[a], a[:-1]
            if parent not in letters:
                raise IsoShapeError(
                    f"{format_position(parent)} is not mapped, {format_position(a)} is"
                )
            if len(b) != len(a) or b[:-1] != mapping.get(parent, EPS):
                raise IsoShapeError(
                    f"{format_position(a)} -> {format_position(b)} is not the image of "
                    f"{format_position(parent)} plus one letter"
                )
            if a:
                letters[parent][a[-1]] = b[-1]
                letters[a] = {}
        built: dict[Position, ZeroOneIso] = {}
        for a in sorted(letters, key=len, reverse=True):
            kids = {k: (k2, built.pop(a + (k,))) for k, k2 in letters[a].items()}
            try:
                built[a] = ZeroOneIso.node(kids) if kids else LEAF
            except IsoShapeError as exc:
                raise IsoShapeError(f"under {format_position(a)}: {exc}") from None
        self.tree, self.kids, self._ident = EPS in mapping, built[EPS].kids, None
        self._hash, self._mapping = None, MappingProxyType(dict(sorted(mapping.items())))

    @staticmethod
    def node(kids: Mapping[Track, tuple[Track, "ZeroOneIso"]], tree: bool = True) -> ZeroOneIso:
        """The isomorphism sending each child letter k to kids[k][0], with the
        sub-isomorphism kids[k][1] under it; a forest's when `tree` is False.
        Costs O(len(kids)): the letter map is copied, the sub-isomorphisms
        are shared.  Raises `IsoShapeError` when a fixed track moves or two
        letters share an image."""
        images: set[Track] = set()
        for k, (k2, _) in kids.items():
            if k2 in images or k != k2 and (k in _FIXED or k2 in _FIXED):
                pairs = sorted((k, k2) for k, (k2, _) in kids.items())
                raise IsoShapeError(f"the letter pairs {pairs} are not a bijection fixing 0 and 1")
            images.add(k2)
        return _node(tree, dict(kids))

    def restrict(self, k: Track) -> "ZeroOneIso":
        """The sub-isomorphism under the child letter k, itself."""
        return self.kids[k][1]

    def is_identity(self) -> bool:
        """Whether every letter is its own image; kept on every node walked."""
        return _fill(self, "_ident", _ident_here)

    def __call__(self, a: Position) -> Position:
        if not (a or self.tree):
            raise KeyError(a)
        node, out = self, []
        for k in a:
            k2, node = node.kids[k]
            out.append(k2)
        return tuple(out)

    @property
    def mapping(self) -> Mapping[Position, Position]:
        """Every position with its image, read-only, in increasing order;
        built on first read and kept."""
        if self._mapping is None:
            out: dict[Position, Position] = {EPS: EPS} if self.tree else {}
            stack = [(EPS, EPS, self)]
            while stack:
                a, b, node = stack.pop()
                for k, (k2, sub) in node.kids.items():
                    out[a + (k,)] = b + (k2,)
                    stack.append((a + (k,), b + (k2,), sub))
            self._mapping = MappingProxyType(dict(sorted(out.items())))
        return self._mapping

    def inverse(self) -> "ZeroOneIso":
        return _carry(self, None, None)

    def compose(self, inner: "ZeroOneIso") -> "ZeroOneIso":
        """self o inner, on the domain of inner; raises `KeyError` where self
        is not defined on an image of inner."""
        return _carry(None, inner, self)

    def conjugate(self, left: "ZeroOneIso", right: "ZeroOneIso") -> "ZeroOneIso":
        """right o self o left^-1, on the image of left, in one walk."""
        return _carry(left, self, right)

    def key(self) -> tuple:
        return tuple(self.mapping.items())

    def roots(self) -> dict[Track, Track]:
        """Rt(phi): the bijection it induces on the tracks of length-1 positions."""
        return {k: k2 for k, (k2, _) in sorted(self.kids.items())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZeroOneIso):
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y or (id(x), id(y)) in seen:
                continue
            seen.add((id(x), id(y)))
            if x.tree != y.tree or len(x.kids) != len(y.kids):
                return False
            for k, (k2, sub) in x.kids.items():
                kid = y.kids.get(k)
                if kid is None or kid[0] != k2:
                    return False
                stack.append((sub, kid[1]))
        return True

    def __hash__(self) -> int:
        """Kept on every node walked."""
        return _fill(self, "_hash", _hash_here)

    def __repr__(self) -> str:
        return f"ZeroOneIso({dict(self.mapping)!r})"

    def __reduce__(self) -> tuple:
        # a read-only view cannot be pickled: pickle and copy by the mapping
        return ZeroOneIso, (dict(self.mapping),)


def _node(tree: bool, kids: Mapping[Track, tuple[Track, ZeroOneIso]]) -> ZeroOneIso:
    """One node over the given sub-isomorphisms, unchecked.  It keeps the
    letter map behind a read-only view, so the caller must not keep it."""
    iso = object.__new__(ZeroOneIso)
    iso.tree, iso.kids = tree, MappingProxyType(kids)
    iso._ident, iso._hash, iso._mapping = None, None, None
    return iso


def _fill(iso: ZeroOneIso, name: str, here: Callable[[ZeroOneIso], object]):
    """The fact `name` of iso, computed by `here` at every node below it
    that lacks it, after the nodes below that node, on an explicit stack,
    and kept on each."""
    stack = [iso]
    while getattr(iso, name) is None:
        node = stack[-1]
        missing = [sub for _, sub in node.kids.values() if getattr(sub, name) is None]
        if missing:
            stack += missing
        else:
            setattr(stack.pop(), name, here(node))
    return getattr(iso, name)


def _ident_here(node: ZeroOneIso) -> bool:
    return all(k == k2 and sub._ident for k, (k2, sub) in node.kids.items())


def _hash_here(node: ZeroOneIso) -> int:
    return hash((node.tree, frozenset((k, k2, sub._hash) for k, (k2, sub) in node.kids.items())))


LEAF = _node(True, {})
"""The isomorphism of the one-position tree."""


def _carry(
    left: Optional[ZeroOneIso], phi: Optional[ZeroOneIso], right: Optional[ZeroOneIso]
) -> ZeroOneIso:
    """right o phi o left^-1 on the image of left, or on the domain of phi
    when left is None; None stands for an identity.  One node per distinct
    triple of nodes, built bottom-up on an explicit stack, so what the input
    shares stays shared.  Raises `KeyError` where phi or right is undefined."""
    drive = left or phi
    if drive.tree and not all(x.tree for x in (phi, right) if x is not None):
        raise KeyError(EPS)
    root = (left, phi, right)
    built: dict[tuple[int, int, int], ZeroOneIso] = {}
    stack: list = [(root, None)]
    while stack:
        item, pending = stack.pop()
        l, p, r = item
        if pending is None:
            key = (id(l), id(p), id(r))
            if key in built:
                continue
            kids: dict[Track, tuple[Track, ZeroOneIso]] = {}
            pending = []
            for k, (k_drive, sub) in (l or p).kids.items():
                k_l, l_sub = (k_drive, sub) if l else (k, None)
                k_p, p_sub = p.kids[k] if p else (k, None)
                k_r, r_sub = r.kids[k_p] if r else (k_p, None)
                if not sub.kids:
                    kids[k_l] = (k_r, LEAF)
                elif (p_sub or sub) is sub and (r_sub or sub) is sub and sub.is_identity():
                    kids[k_l] = (k_r, sub)  # every factor is this one identity
                else:
                    pending.append((k_l, k_r, (l_sub, p_sub, r_sub)))
            if pending:
                stack.append((item, (key, kids, pending)))
                stack.extend((sub, None) for _, _, sub in pending)
                continue
        else:
            key, kids, pending = pending
            for k_l, k_r, (l2, p2, r2) in pending:
                kids[k_l] = (k_r, built[id(l2), id(p2), id(r2)])
        built[key] = node = _node(item is not root or drive.tree, kids)
    return node  # the root's, built last


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
    below: list[list[int]] = [[] for _ in order]
    for j in range(1, n):
        below[parent[j]].append(j)
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
            # one node per position with children, each from its children's
            # images, in reverse preorder; a leaf is LEAF
            built = [LEAF] * n
            for j in range(n - 1, -1, -1):
                if below[j] or not j:
                    kids = {order[c][-1]: (image[c][-1], built[c]) for c in below[j]}
                    built[j] = _node(j > 0 or not start, kids)
            yield built[0]
            continue
        i += 1
        a, b = order[i], image[parent[i]]
        options[i] = (b + a[-1:],) if a[-1] < 2 else targets[b, cls1[a]]
        tried[i] = 0
