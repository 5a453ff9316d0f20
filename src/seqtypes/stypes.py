"""Rigid types, sequence types, and their multiset collapses.

An S-type is an atom or an arrow whose source is a sequence type: a finite
family of S-types indexed by tracks >= 2.  Forgetting the tracks collapses
a sequence type onto a multiset, giving the non-rigid types (R-types) that
equality `equiv` is defined against.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from .positions import (
    EPS,
    LEAF,
    DomainMismatchError,
    Position,
    Track,
    ZeroOneIso,
    _node,
    format_position,
    iter_01_isos,
    scan,
)

ARROW = "->"


class TypeSyntaxError(ValueError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class RelabellingError(ValueError):
    """New tracks that miss a mutable position, are not mutable, or give two
    siblings the same track."""


class _TypeFacts:
    """The facts of an S-type or a sequence type, each computed at most once
    per node and kept on it, shared by every reader: none can be mutated.

    `collapse`, `_identity` (read by `identity_iso`), the hash and the class
    hash `_class` are built bottom-up from the children's cached facts; `support` and
    `mutable_positions` walk the node top-down and are kept on that node
    only, since on shared subtypes they would repeat every position once per
    enclosing type.  No walk recurses, and neither does `==`.
    """

    def __eq__(self, other: object) -> bool:
        """Syntactic equality, walked on an explicit stack that skips a pair
        met as one object."""
        if not isinstance(other, _TypeFacts):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            u1, u2 = stack.pop()
            if u1 is u2:
                continue
            if type(u1) is not type(u2) or type(u1) is SAtom and u1.name != u2.name:
                return False
            if type(u1) is SArrow:
                stack += ((u1.source, u2.source), (u1.target, u2.target))
            elif type(u1) is SeqType:
                if len(u1.entries) != len(u2.entries):
                    return False
                for (k1, s1), (k2, s2) in zip(u1.entries, u2.entries):
                    if k1 != k2:
                        return False
                    stack.append((s1, s2))
        return True

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return _bottom_up(self, "_hash", _hash_here)

    @cached_property
    def _class(self) -> int:
        """A hash of the isomorphism class, that is of the collapse: equal on
        isomorphic types, and on others only by a collision."""
        return _bottom_up(self, "_class", _class_here)

    @cached_property
    def collapse(self) -> Union["RType", tuple["RType", ...]]:
        """The multiset collapse: an R-type, or, for a sequence type, the
        sorted multiset of its entries' collapses."""
        return _bottom_up(self, "collapse", _collapse_here)

    @cached_property
    def _identity(self) -> ZeroOneIso:
        return _bottom_up(self, "_identity", _identity_here)

    @cached_property
    def support(self) -> frozenset[Position]:
        """The support: a tree, holding `EPS`, for an S-type, and a forest,
        without it, for a sequence type."""
        return _support(self)

    @cached_property
    def mutable_positions(self) -> tuple[Position, ...]:
        """The positions ending in a track >= 2, in lexicographic order."""
        return _mutable_positions(self)

    def __getstate__(self) -> dict:
        # only the fields are pickled or copied: the facts are rebuilt on
        # demand
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, eq=False)
class SAtom(_TypeFacts):
    name: str


@dataclass(frozen=True, eq=False)
class SArrow(_TypeFacts):
    source: "SeqType"
    target: "SType"


SType = Union[SAtom, SArrow]


@dataclass(frozen=True, eq=False)
class SeqType(_TypeFacts):
    entries: tuple[tuple[Track, SType], ...]

    def __post_init__(self) -> None:
        tracks = [k for k, _ in self.entries]
        if any(k < 2 for k in tracks):
            raise ValueError("sequence tracks are >= 2")
        if len(set(tracks)) != len(tracks):
            raise ValueError("duplicate track in sequence type")
        if list(tracks) != sorted(tracks):
            raise ValueError("sequence entries must be sorted by track")

    def tracks(self) -> list[Track]:
        return [k for k, _ in self.entries]

    def get(self, k: Track) -> SType:
        for track, stype in self.entries:
            if track == k:
                return stype
        raise KeyError(k)

    def items(self) -> tuple[tuple[Track, SType], ...]:
        return self.entries

    def is_empty(self) -> bool:
        return not self.entries

    def __len__(self) -> int:
        return len(self.entries)


EMPTY_SEQ = SeqType(())


def seq(entries: Mapping[Track, SType] | Iterable[tuple[Track, SType]]) -> SeqType:
    pairs = entries.items() if isinstance(entries, Mapping) else entries
    return SeqType(tuple(sorted(pairs, key=itemgetter(0))))  # by track: types are unordered


def _children(u: SType | SeqType) -> tuple[tuple[Track, SType], ...]:
    """The nodes right below u, with their letters: the target under 1, then
    the source entries (for a sequence type, its entries)."""
    if isinstance(u, SArrow):
        return ((1, u.target),) + u.source.entries
    if isinstance(u, SeqType):
        return u.entries
    return ()


def _bottom_up(t: SType | SeqType, name: str, here: Callable) -> Any:
    """The fact `name` of t.  `here(u)` computes it at one node from the
    facts of the nodes right below (an arrow's are its source and target).
    A postorder walk on an explicit stack runs it once at every node below t
    that lacks the fact, however often the node is shared, and caches each
    value on its node as the `cached_property` of that name would."""
    seen: set[int] = set()
    stack: list = [(t, False)]
    while stack:
        u, expanded = stack.pop()
        if expanded:
            u.__dict__[name] = here(u)
        elif name not in u.__dict__ and id(u) not in seen:
            seen.add(id(u))
            stack.append((u, True))
            if isinstance(u, SArrow):
                stack += ((u.source, False), (u.target, False))
            elif isinstance(u, SeqType):
                stack += [(s, False) for _, s in u.entries]
    return t.__dict__[name]


def _collapse_here(u: SType | SeqType) -> Union["RType", tuple["RType", ...]]:
    if isinstance(u, SAtom):
        return RAtom(u.name)
    if isinstance(u, SArrow):
        # the source's collapse is already a sorted multiset
        return RArrow(u.source.collapse, u.target.collapse)
    return rmultiset(s.collapse for _, s in u.entries)


def _hash_here(u: SType | SeqType) -> int:
    if isinstance(u, SAtom):
        return hash(u.name)
    if isinstance(u, SArrow):
        return hash((u.source._hash, u.target._hash))
    return hash(tuple((k, s._hash) for k, s in u.entries))


def _class_here(u: SType | SeqType) -> int:
    if type(u) is SAtom:
        return hash(u.name)
    if type(u) is SArrow:
        return hash((u.source._class, u.target._class))
    return hash(tuple(sorted([s._class for _, s in u.entries])))


def _identity_here(u: SType | SeqType) -> ZeroOneIso:
    if isinstance(u, SAtom):
        return LEAF
    if isinstance(u, SArrow):
        return ZeroOneIso.node({1: (1, u.target._identity), **u.source._identity.kids})
    return ZeroOneIso.node({k: (k, s._identity) for k, s in u.entries}, tree=False)


def _support(t: SType | SeqType) -> frozenset[Position]:
    positions: set[Position] = set()
    # preorder, each arrow's source entries before its target: the insertion
    # order fixes the iteration order of the support, which
    # `random_relabelling` draws its tracks in
    stack = [((k,), s) for k, s in reversed(t.entries)] if isinstance(t, SeqType) else [(EPS, t)]
    while stack:
        c, u = stack.pop()
        positions.add(c)
        if isinstance(u, SArrow):
            stack.append((c + (1,), u.target))
            stack.extend((c + (k,), s) for k, s in reversed(u.source.entries))
    return frozenset(positions)


def _mutable_positions(t: SType | SeqType) -> tuple[Position, ...]:
    """A preorder walk that visits the target (letter 1) before the source
    entries, which are sorted by track: lexicographic order."""
    out: list[Position] = []
    stack = [((k,), s) for k, s in reversed(t.entries)] if isinstance(t, SeqType) else [(EPS, t)]
    while stack:
        c, u = stack.pop()
        if c and c[-1] >= 2:
            out.append(c)
        if isinstance(u, SArrow):
            stack.extend((c + (k,), s) for k, s in reversed(u.source.entries))
            stack.append((c + (1,), u.target))
    return tuple(out)


class Keyed:
    """A node identified by its canonical `key`, a nested tuple built at
    construction from its children's keys.  Equality and hashing read the
    key, and sorting by it is the canonical order of multisets."""

    key: tuple

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Keyed):
            return NotImplemented
        return self is other or self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


@dataclass(frozen=True, eq=False)
class RAtom(Keyed):
    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (0, self.name))


@dataclass(frozen=True, eq=False)
class RArrow(Keyed):
    source: tuple["RType", ...]
    target: "RType"

    def __post_init__(self) -> None:
        key = (1, tuple(s.key for s in self.source), self.target.key)
        object.__setattr__(self, "key", key)


RType = Union[RAtom, RArrow]


def rarrow(source: Iterable[RType], target: RType) -> RArrow:
    return RArrow(tuple(sorted(source, key=attrgetter("key"))), target)


def rmultiset(items: Iterable[RType]) -> tuple[RType, ...]:
    return tuple(sorted(items, key=attrgetter("key")))


def equiv(t1: SType | SeqType, t2: SType | SeqType) -> bool:
    """Equality up to 01-isomorphism, decided through the multiset collapse."""
    if isinstance(t1, SeqType) != isinstance(t2, SeqType):
        return False
    return t1.collapse == t2.collapse


def _label(u: SType | SeqType) -> Optional[str]:
    """An atom's name or an arrow's `ARROW`; a sequence type, the root of a
    forest, has none."""
    return u.name if type(u) is SAtom else ARROW if type(u) is SArrow else None


def identity_iso(t: SType | SeqType) -> ZeroOneIso:
    """The identity isomorphism of the support of t, built once per node and
    kept on it: one node per distinct arrow or sequence type, sharing the
    nodes of shared subtypes."""
    return t._identity


def relabel_type(t: SType, tracks: Mapping[Position, Track]) -> tuple[SType, ZeroOneIso]:
    """The resetting of t along new tracks given by position: `_relabel` on
    them in `mutable_positions` order.  Entries for other positions are
    ignored."""
    return _relabel(t, [tracks.get(c) for c in t.mutable_positions])


def _relabel(t: SType, tracks: Sequence[Optional[Track]]) -> tuple[SType, ZeroOneIso]:
    """The resetting of t along new tracks for its mutable positions, listed
    in `mutable_positions` order (None for a missing one), and the
    01-isomorphism from its support onto the new type's.  Raises
    `RelabellingError` when a track is missing, below 2 or given to two
    siblings; a position is built only to name it there.

    One preorder walk on an explicit stack, in that order, gives each entry
    its track and checks it, keeping per arrow its entries' new tracks in a
    dict that finds a repeated one.  The arrows are then rebuilt in reverse
    preorder, each with its node of the isomorphism (a target keeps its
    letter 1): its rebuilt children lie uppermost on a stack of values, the
    target on top.  The atoms and `LEAF` are shared.
    """

    def named(i: int) -> str:
        return format_position(t.mutable_positions[i])

    arrows: list[tuple[SArrow, dict[Track, int]]] = []
    stack: list = [(t, None)]
    i = 0
    while stack:
        u, taken = stack.pop()
        if taken is not None:  # an entry: its new track is the next one
            new = tracks[i]
            if new is None:
                raise RelabellingError(f"relabelling undefined on {named(i)}")
            if new < 2:
                raise RelabellingError(f"new track {new} is not mutable")
            if new in taken:
                raise RelabellingError(
                    f"siblings {named(taken[new])} and {named(i)} both relabelled to {new}"
                )
            taken[new] = i
            i += 1
        if type(u) is SArrow:
            below: dict[Track, int] = {}
            arrows.append((u, below))
            stack += [(s, below) for _, s in reversed(u.source.entries)]
            stack.append((u.target, None))
    built: list[tuple[SType, ZeroOneIso]] = []
    for u, taken in reversed(arrows):
        target, target_iso = built.pop() if type(u.target) is SArrow else (u.target, LEAF)
        entries, kids = [], {1: (1, target_iso)}
        for (k, s), new in zip(u.source.entries, taken):
            s2, iso = built.pop() if type(s) is SArrow else (s, LEAF)
            entries.append((new, s2))
            kids[k] = (new, iso)
        built.append((SArrow(seq(entries), target), _node(True, kids)))
    return built.pop() if built else (t, LEAF)


def subtypes(u: SType | RType) -> Sequence[SType | RType]:
    """An arrow's source types, in order, then its target; an atom has none."""
    if isinstance(u, SArrow):
        return [s for _, s in u.source.entries] + [u.target]
    return u.source + (u.target,) if isinstance(u, RArrow) else ()


def rebuild_type(t: SType | RType, build: Callable[..., SType]) -> SType:
    """build(t, kids), kids being what it gives at the `subtypes` of t; on an
    explicit stack, so depth is unbounded, building a shared subtype once."""
    built: dict[int, SType] = {}
    stack = [(t, False)]
    while stack:
        u, expanded = stack.pop()
        if expanded:
            built[id(u)] = build(u, [built[id(c)] for c in subtypes(u)])
        elif id(u) not in built:
            stack.append((u, True))
            stack += [(c, False) for c in subtypes(u)]
    return built[id(t)]


def check_type_iso(
    t1: SType | SeqType,
    t2: SType | SeqType,
    iso: ZeroOneIso,
    memo: Optional[dict[tuple[int, int, int], tuple]] = None,
) -> bool:
    """Whether iso, a 01-isomorphism by construction, maps the support of t1
    onto the support of t2 and keeps every label.  Raises
    `DomainMismatchError` when iso is not defined on exactly the support of
    t1.

    Neither support is built.  The check walks t1, t2 and iso together: at
    each node, the letters of iso must be the letters below the node of t1,
    and their images the letters below the node of t2, each naming a node
    with the same label.  Once the verdict is False the walk goes on over t1
    and iso alone, since a missing or extra letter still raises.  A triple
    of nodes met twice is walked once.  A `memo` that the caller passes to
    several calls keeps the triples of the calls that returned True, keyed
    by their ids, so a shared subtype under a shared sub-isomorphism is
    checked once across the calls.  It holds the triples themselves, so
    their ids cannot be reused while it lives.
    """
    tree = not isinstance(t1, SeqType)
    if iso.tree != tree:
        raise DomainMismatchError("mapping domain differs from the first support")
    if memo is not None and (id(t1), id(t2), id(iso)) in memo:
        return True
    ok = _label(t1) == _label(t2)
    seen: dict[tuple[int, int, int], tuple] = {}
    stack: list = [(t1, t2, iso)]
    while stack:
        u1, u2, phi = stack.pop()
        if not ok:
            u2 = None
        key = (id(u1), id(u2), id(phi))
        if key in seen or (memo is not None and key in memo):
            continue
        seen[key] = (u1, u2, phi)
        kids1, kids = _children(u1), phi.kids
        if len(kids1) != len(kids):
            raise DomainMismatchError("mapping domain differs from the first support")
        if ok:
            kids2 = dict(_children(u2))
            ok = len(kids2) == len(kids1)
        for k, s in kids1:
            kid = kids.get(k)
            if kid is None:
                raise DomainMismatchError("mapping domain differs from the first support")
            k2, sub = kid
            if ok:
                s2 = kids2.get(k2)
                ok = s2 is not None and _label(s) == _label(s2)
            if sub.kids or type(s) is not SAtom:
                stack.append((s, s2 if ok else None, sub))
    if ok and memo is not None:
        memo.update(seen)
    return ok


def iter_type_isos(t1: SType | SeqType, t2: SType | SeqType) -> Iterator[ZeroOneIso]:
    """The type isomorphisms from t1 onto t2, lazily, in increasing `key()`
    order: exactly what `iter_01_isos` yields on the two types.

    The first, the least, is built in closed form by `_least_type_iso`, one
    walk over both types that reads their cached class hashes.  Where the
    walk met no two sibling entries of one hash, every class it met among
    siblings has one member, so that isomorphism is the only one and the
    iteration ends.  Otherwise only a second draw runs `iter_01_isos`, whose
    first element it skips.  Where the walk fails, the types are not
    isomorphic or two classes share a hash, and `iter_01_isos` yields
    everything, so a collision costs time, never a wrong answer.
    """
    least, only = _least_type_iso(t1, t2)
    if least is not None:
        yield least
        if only:
            return
    isos = iter_01_isos(t1, t2, _children, _label, not isinstance(t1, SeqType))
    if least is not None:
        next(isos)
    yield from isos


def _least_type_iso(
    t1: SType | SeqType, t2: SType | SeqType
) -> tuple[Optional[ZeroOneIso], bool]:
    """The least isomorphism from t1 onto t2, or None where the walk fails,
    and whether no two sibling entries of t2 that it met share a hash.

    One lockstep walk over both types on an explicit stack, building each
    node of the isomorphism after the nodes below it and a pair of shared
    subtypes once.  At each pair, the labels and the entry counts must
    agree; the target goes to the target and a single entry to the single
    entry; otherwise each entry of t1, in track order, takes the least free
    entry of t2 of the same class hash, as `iter_01_isos` takes its first
    isomorphism.  A walk that completes has built a label-preserving
    bijection at every pair, so it never pairs two classes that merely
    share a hash.  No collapse key is hashed or compared.
    """
    if type(t1) is not type(t2) or type(t1) is SAtom and t1.name != t2.name:
        return None, False
    if type(t1) is SAtom:
        return LEAF, True
    built: dict[tuple[int, int], Optional[ZeroOneIso]] = {}
    only = True
    stack: list = [(t1, t2, None)]
    while stack:
        u1, u2, pairs = stack.pop()
        if pairs is not None:
            kids = {
                k: (k2, LEAF if type(s1) is SAtom else built[id(s1), id(s2)])
                for k, k2, s1, s2 in pairs
            }
            built[id(u1), id(u2)] = _node(u1 is not t1 or type(t1) is not SeqType, kids)
            continue
        if (id(u1), id(u2)) in built:
            continue
        built[id(u1), id(u2)] = None  # pending
        if type(u1) is SArrow:
            pairs, e1, e2 = [(1, 1, u1.target, u2.target)], u1.source.entries, u2.source.entries
        else:
            pairs, e1, e2 = [], u1.entries, u2.entries
        if len(e1) != len(e2):
            return None, False
        if len(e1) == 1:
            pairs.append((e1[0][0], e2[0][0], e1[0][1], e2[0][1]))
        elif e1:
            free: dict[int, list[tuple[Track, SType]]] = {}
            for k2, s2 in reversed(e2):
                free.setdefault(s2._class, []).append((k2, s2))
            only = only and len(free) == len(e2)
            for k, s1 in e1:
                group = free.get(s1._class)
                if not group:
                    return None, False
                k2, s2 = group.pop()
                pairs.append((k, k2, s1, s2))
        stack.append((u1, u2, pairs))
        for _, _, s1, s2 in pairs:
            if type(s1) is not type(s2) or type(s1) is SAtom and s1.name != s2.name:
                return None, False
            if type(s1) is SArrow:
                stack.append((s1, s2, None))
    return built[id(t1), id(t2)], only


_TOKEN = re.compile(r"(->)|([(),:])|([0-9]+)|(\w[\w']*)|(\S)")  # tracks in ASCII digits
_KINDS = ("arrow", None, "nat", "atom")


def _parse(text: str, sequence: bool) -> SType | SeqType:
    """An S-type, or with `sequence` a sequence type, and nothing after it.

    A recursive-descent parser run on an explicit stack, so nesting depth is
    unbounded.  Each pending frame is one unfinished rule: a sequence type
    read and awaiting its arrow's target, or an open sequence, a list of its
    entries and of the track whose type it awaits.
    """
    tokens = scan(text, _TOKEN, _KINDS, TypeSyntaxError)
    if sequence and tokens[0][0] != "(":
        raise TypeSyntaxError("expected '('", tokens[0][2])
    pos = 0
    stack: list = []
    entry = False  # whether an entry's `track :` comes next
    while True:
        kind, value, off = tokens[pos]
        pos += 1
        if entry:
            if kind != "nat":
                raise TypeSyntaxError("expected a track number", off)
            if value[0] == "0" and len(value) > 1:
                raise TypeSyntaxError("a track has no leading zero", off)
            if int(value) < 2:
                raise TypeSyntaxError("sequence tracks are >= 2", off)
            if tokens[pos][0] != ":":
                raise TypeSyntaxError("expected ':' after track", tokens[pos][2])
            pos += 1
            stack[-1][1] = int(value)
            entry = False
            continue
        if kind == "(" and tokens[pos][0] != ")":
            stack.append([[], None])
            entry = True
            continue
        if kind == "(":
            pos += 1
            done: Optional[SType | SeqType] = EMPTY_SEQ
        elif kind == "atom":
            done = SAtom(value)
        else:
            raise TypeSyntaxError(f"unexpected token {value!r}", off)
        while True:  # close the rules the value completes
            if isinstance(done, SeqType) and (stack or not sequence):
                if tokens[pos][0] != "arrow":
                    raise TypeSyntaxError("expected '->' after sequence", tokens[pos][2])
                pos += 1
                stack.append(done)
                done = None
                break
            if not stack:
                break
            top = stack.pop()
            if isinstance(top, SeqType):
                done = SArrow(top, done)
                continue
            top[0].append((top[1], done))
            kind, _, off = tokens[pos]
            pos += 1
            if kind == ",":
                stack.append(top)
                entry, done = True, None
                break
            if kind != ")":
                raise TypeSyntaxError("expected ',' or ')'", off)
            done = seq(top[0])
        if done is not None:
            break
    kind, value, off = tokens[pos]
    if kind != "eof":
        raise TypeSyntaxError(f"trailing input {value!r}", off)
    return done


def parse_type(text: str) -> SType:
    return _parse(text, sequence=False)


def parse_seq_type(text: str) -> SeqType:
    return _parse(text, sequence=True)


def print_type(t: SType | SeqType) -> str:
    """The text of t, printed from an explicit stack of nodes and pieces of
    text, so depth is unbounded."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if type(u) is str:
            out.append(u)
        elif type(u) is SAtom:
            out.append(u.name)
        elif type(u) is SArrow:
            stack += (u.target, f" {ARROW} ", u.source)
        else:
            out.append("(")
            stack.append(")")
            for i in range(len(u.entries) - 1, -1, -1):
                k, s = u.entries[i]
                stack += (s, f", {k}:" if i else f"{k}:")
    return "".join(out)


def print_rtype(rt: RType) -> str:
    """The text of rt, printed as `print_type` prints."""
    out: list[str] = []
    stack: list = [rt]
    while stack:
        u = stack.pop()
        if type(u) is str:
            out.append(u)
        elif type(u) is RAtom:
            out.append(u.name)
        else:
            out.append("[")
            stack += (u.target, f"] {ARROW} ")
            for i in range(len(u.source) - 1, -1, -1):
                stack += (u.source[i], ",") if i else (u.source[i],)
    return "".join(out)
