"""Words of tracks, supports and 01-isomorphisms.

Positions are finite words over the naturals.  Letters 0 and 1 are fixed
(structural) tracks; letters >= 2 are mutable argument tracks.  A support,
what terms, types and derivations live on, is a prefix-closed frozenset of
positions: a tree holds `EPS`, a forest (a sequence type's, a tree minus its
root) does not.  01-isomorphisms are the track-renaming bijections that
leave the fixed tracks alone, stored as trees of per-node letter maps that
share their subtrees, and enumerated lazily in key order by `iter_01_isos`.
`scan` tokenizes the text of types and terms, each grammar with its one
compiled pattern.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Callable, Hashable, Iterator, Mapping, Optional, Sequence, TypeVar

Position = tuple[int, ...]
Track = int
N = TypeVar("N")  # a tree node, as `iter_01_isos` reads it

EPS: Position = ()
# position text: letters of ASCII digits without a leading zero; `-` marks a
# negative letter
_LETTERS = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.-?(?:0|[1-9][0-9]*))*")


class DomainMismatchError(ValueError):
    """The candidate mapping is not even defined on the right support."""


def collapse_position(a: Position) -> Position:
    return tuple(min(k, 2) for k in a)


def applicative_depth(a: Position) -> int:
    """Number of argument tracks (letters >= 2) in the word."""
    return sum(1 for k in a if k >= 2)


def parse_position(text: str) -> Position:
    """`eps`, the empty text, or letters of ASCII digits joined by dots, each
    `0` or without a leading zero, so that every position has one text up to
    surrounding whitespace and `eps`."""
    text = text.strip()
    if text in ("eps", ""):
        return EPS
    if not _LETTERS.fullmatch(text):
        raise ValueError(f"bad position syntax: {text!r}")
    if "-" in text:
        raise ValueError(f"negative track in position: {text!r}")
    return tuple(map(int, text.split(".")))


def format_position(a: Position) -> str:
    return "eps" if not a else ".".join(map(str, a))


def scan(
    text: str,
    pattern: re.Pattern,
    kinds: Sequence[Optional[str]],
    error: Callable[[str, int], Exception],
) -> list[tuple[str, str, int]]:
    """The tokens of text, each (kind, value, offset), then ("eof", "", len(text)).

    `pattern` alternates one group per kind of token, the word last, and
    then `(\\S)` for any other character; whitespace between tokens is
    skipped.  A token of group i is of the kind kinds[i - 1], or its own text
    where that is None.  Raises error(message, offset) at the first
    character no token takes, a word that does not start with a letter
    included.
    """
    tokens = []
    for m in pattern.finditer(text):
        i, value = m.lastindex, m.group()
        if i > len(kinds) or i == len(kinds) and not value[0].isalpha():
            raise error(f"unexpected character {value[0]!r}", m.start())
        tokens.append((kinds[i - 1] or value, value, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


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
        no 01-isomorphism has it.  One pass in reverse lexicographic order
        meets every position after all its descendants, so each node is
        built once, through `node`, from its children's."""
        kids: dict[Position, dict[Track, tuple[Track, ZeroOneIso]]] = {}
        order = sorted(mapping, reverse=True)
        for a in order if EPS in mapping else order + [EPS]:
            b, parent = mapping.get(a, EPS), a[:-1]
            image = mapping.get(parent, EPS if len(a) < 2 else None)
            if image is None:
                raise IsoShapeError(
                    f"{format_position(parent)} is not mapped, {format_position(a)} is"
                )
            if len(b) != len(a) or b[:-1] != image:
                raise IsoShapeError(
                    f"{format_position(a)} -> {format_position(b)} is not the image of "
                    f"{format_position(parent)} plus one letter"
                )
            below = kids.pop(a, None)
            try:
                sub = LEAF if below is None else ZeroOneIso.node(below)
            except IsoShapeError as exc:
                raise IsoShapeError(f"under {format_position(a)}: {exc}") from None
            if a:
                kids.setdefault(parent, {})[a[-1]] = (b[-1], sub)
        self.tree, self.kids = EPS in mapping, sub.kids  # the root's, met last
        self._ident, self._hash, self._mapping = None, None, None

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
        return _fill(self, "_ident", _ident_here) if self._ident is None else self._ident

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


def _preorder(
    root: N,
    children: Callable[[N], Sequence[tuple[Track, N]]],
    label: Callable[[N], Hashable],
    table: dict[tuple, int],
) -> tuple[list[int], list[Track], list[list[int]], list[int]]:
    """The nodes of the tree under root in preorder, which is increasing
    position order: each node's parent index (-1 at the root), its letter,
    its children's indices and its class id, on an explicit stack.

    Class ids are computed bottom-up (Aho, Hopcroft, Ullman): the key of a
    node is its label, its fixed children's ids by letter and the sorted ids
    of its mutable children.  Trees that share the table get equal ids
    exactly for isomorphic labelled subtrees.
    """
    parent: list[int] = []
    letter: list[Track] = []
    labels: list[Hashable] = []
    below: list[list[int]] = []
    stack: list[tuple[N, int, Track]] = [(root, -1, 0)]
    while stack:
        node, p, k = stack.pop()
        i = len(parent)
        parent.append(p)
        letter.append(k)
        labels.append(label(node))
        below.append([])
        if p >= 0:
            below[p].append(i)
        kids = children(node)
        if kids:
            stack += [(c, i, k2) for k2, c in reversed(kids)]
    ids = [0] * len(parent)
    for i in range(len(parent) - 1, -1, -1):
        kids = below[i]
        if kids:
            fixed = tuple([(letter[c], ids[c]) for c in kids if letter[c] < 2])
            key = (labels[i], fixed, tuple(sorted([ids[c] for c in kids if letter[c] >= 2])))
        else:
            key = (labels[i], (), ())
        ids[i] = table.setdefault(key, len(table))
    return parent, letter, below, ids


def iter_01_isos(
    root1: N,
    root2: N,
    children: Callable[[N], Sequence[tuple[Track, N]]],
    label: Callable[[N], Hashable],
    tree: bool,
) -> Iterator[ZeroOneIso]:
    """The 01-isomorphisms from the tree under root1 onto the tree under
    root2 that keep every label, lazily, in increasing `key()` order.

    Both trees are read through `children(node)`, its (letter, child) pairs
    in increasing letter order, and `label(node)`.  `tree` says whether the
    root is in the domain; a forest's root (a sequence type's, say) is not.
    Source nodes are walked in preorder and each is mapped to the least free
    target child of the same class; backtracking runs on an explicit stack.
    Since equal classes mean isomorphic subtrees, every partial map extends,
    so the isomorphisms come out in order without a sort and none is built
    in vain.  The first one costs O(n log n) in the number n of nodes, plus
    a scan quadratic in the size of each group of same-class siblings; each
    later one costs at most as much again.  It is the one enumerator:
    `stypes.iter_type_isos` builds the least type isomorphism itself, from
    the hashes stored on the types' collapses, and runs this only for the
    rest.
    """
    table: dict[tuple, int] = {}
    parent, letter, below, cls1 = _preorder(root1, children, label, table)
    parent2, letter2, _, cls2 = _preorder(root2, children, label, table)
    if cls1[0] != cls2[0]:
        return
    # the target children of each node by class; a fixed letter k is its
    # own class, -1 - k
    targets: dict[tuple[int, int], list[int]] = {}
    for j in range(1, len(parent2)):
        k = letter2[j]
        targets.setdefault((parent2[j], cls2[j] if k >= 2 else -1 - k), []).append(j)
    n = len(parent)
    image = [-1] * n
    options: list[Sequence[int]] = [(0,)] + [()] * (n - 1)
    tried = [0] * n
    used: set[int] = set()
    i = 0
    while i >= 0:
        if image[i] >= 0:
            used.discard(image[i])
            image[i] = -1
        opts, j = options[i], tried[i]
        while j < len(opts) and opts[j] in used:
            j += 1
        if j == len(opts):
            i -= 1
            continue
        image[i], tried[i] = opts[j], j + 1
        used.add(opts[j])
        if i + 1 == n:
            # one node per node with children, each from its children's
            # images, in reverse preorder; a leaf is LEAF
            built = [LEAF] * n
            for j in range(n - 1, -1, -1):
                if below[j] or not j:
                    kids = {letter[c]: (letter2[image[c]], built[c]) for c in below[j]}
                    built[j] = _node(j > 0 or tree, kids)
            yield built[0]
            continue
        i += 1
        k = letter[i]
        options[i] = targets[image[parent[i]], cls1[i] if k >= 2 else -1 - k]
        tried[i] = 0
