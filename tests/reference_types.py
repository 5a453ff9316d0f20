"""The type-fact functions as they were before the facts were cached on the
type nodes, kept verbatim as the oracle of `test_types_differential.py`.

`type_support`, `collapse_type`/`collapse_seq` (with the `rkey`-sorted
`rarrow`/`rmultiset` they build with), `rkey`, `rderiv_key`, `equiv`,
`threads._mutable_positions` and the support-based `check_type_iso`
recomputed every fact from the structure of the type on every call.  Only
the imports differ: the functions here call each other, never the cached
facts.  `rkey` and `rderiv_key` read nothing but the fields of the R-nodes,
so they are independent of the keys the nodes now carry.

`check_01_iso`, the clause-by-clause check of a position mapping that the
support-based `check_type_iso` calls, is the library's former
`positions.check_01_iso`, moved here verbatim once every isomorphism the
library makes is a `ZeroOneIso`, whose constructor checks its shape.  The
other oracles (`reference_judgment_isos`, `test_positions`, `test_stypes`)
import it from here.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from seqtypes.derivations import RAbsD, RAxD, RNode
from seqtypes.positions import EPS, DomainMismatchError, Position
from seqtypes.stypes import ARROW, RArrow, RAtom, RType, SArrow, SAtom, SeqType, SType


def rkey(rt: RType) -> tuple:
    if isinstance(rt, RAtom):
        return (0, rt.name)
    return (1, tuple(rkey(s) for s in rt.source), rkey(rt.target))


def rarrow(source: Iterable[RType], target: RType) -> RArrow:
    return RArrow(tuple(sorted(source, key=rkey)), target)


def rmultiset(items: Iterable[RType]) -> tuple[RType, ...]:
    return tuple(sorted(items, key=rkey))


def collapse_type(t: SType) -> RType:
    if isinstance(t, SAtom):
        return RAtom(t.name)
    return rarrow(collapse_seq(t.source), collapse_type(t.target))


def collapse_seq(f: SeqType) -> tuple[RType, ...]:
    return rmultiset(collapse_type(s) for _, s in f.items())


def equiv(t1: SType | SeqType, t2: SType | SeqType) -> bool:
    """Equality up to 01-isomorphism, decided through the multiset collapse."""
    if isinstance(t1, SeqType) != isinstance(t2, SeqType):
        return False
    if isinstance(t1, SeqType):
        return collapse_seq(t1) == collapse_seq(t2)
    return collapse_type(t1) == collapse_type(t2)


def type_support(t: SType | SeqType) -> tuple[frozenset[Position], dict[Position, str]]:
    positions: set[Position] = set()
    labels: dict[Position, str] = {}

    def walk_type(u: SType, prefix: Position) -> None:
        positions.add(prefix)
        if isinstance(u, SAtom):
            labels[prefix] = u.name
        else:
            labels[prefix] = ARROW
            walk_seq(u.source, prefix)
            walk_type(u.target, prefix + (1,))

    def walk_seq(f: SeqType, prefix: Position) -> None:
        for k, s in f.items():
            walk_type(s, prefix + (k,))

    if isinstance(t, SeqType):
        walk_seq(t, EPS)
    else:
        walk_type(t, EPS)
    return frozenset(positions), labels


def check_01_iso(
    u1: frozenset[Position],
    u2: frozenset[Position],
    mapping: Mapping[Position, Position],
    labels1: Optional[Mapping[Position, str]] = None,
    labels2: Optional[Mapping[Position, str]] = None,
) -> bool:
    """Check the 01-isomorphism clauses on a position mapping; raise on a
    domain mismatch.

    The labelled clause is checked only when both label maps are supplied.
    """
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


def check_type_iso(
    t1: SType | SeqType, t2: SType | SeqType, mapping: Mapping[Position, Position]
) -> bool:
    """Whether the position mapping is a label-preserving 01-isomorphism of
    the type supports."""
    sup1, lab1 = type_support(t1)
    sup2, lab2 = type_support(t2)
    return check_01_iso(sup1, sup2, mapping, lab1, lab2)


def rderiv_key(n: RNode) -> tuple:
    if isinstance(n, RAxD):
        return (0, rkey(n.rtype))
    if isinstance(n, RAbsD):
        return (1, rderiv_key(n.child))
    return (2, rderiv_key(n.left), tuple(rderiv_key(c) for c in n.args))


def _mutable_positions(t: SType | SeqType) -> list[Position]:
    """The positions of a type or sequence type that end in a track >= 2,
    in lexicographic order: a preorder walk that visits the target (letter
    1) before the source entries, which are sorted by track."""
    out: list[Position] = []
    if isinstance(t, SeqType):
        stack = [((k,), s) for k, s in reversed(t.entries)]
    else:
        stack = [(EPS, t)]
    while stack:
        c, u = stack.pop()
        if c and c[-1] >= 2:
            out.append(c)
        if isinstance(u, SArrow):
            stack.extend((c + (k,), s) for k, s in reversed(u.source.entries))
            stack.append((c + (1,), u.target))
    return out
