"""Rigid types, sequence types, and their multiset collapses.

An S-type is an atom or an arrow whose source is a sequence type: a finite
family of S-types indexed by tracks >= 2.  Forgetting the tracks collapses
a sequence type onto a multiset, giving the non-rigid types (R-types) that
equality `equiv` is defined against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

from .positions import (
    EPS,
    PosForest,
    Position,
    PosTree,
    Track,
    ZeroOneIso,
    check_01_iso,
    iter_01_isos,
)

ARROW = "->"


class TypeSyntaxError(ValueError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class TrackConflictError(ValueError):
    """Disjoint union of sequence types failed; carries the clashing tracks."""

    def __init__(self, tracks: frozenset[Track]) -> None:
        super().__init__(f"track conflict on {sorted(tracks)}")
        self.tracks = tracks


@dataclass(frozen=True)
class SAtom:
    name: str


@dataclass(frozen=True)
class SArrow:
    source: "SeqType"
    target: "SType"


SType = Union[SAtom, SArrow]


@dataclass(frozen=True)
class SeqType:
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
    return SeqType(tuple(sorted(pairs)))


def seq_union(*seqs: SeqType) -> SeqType:
    merged: dict[Track, SType] = {}
    clashes: set[Track] = set()
    for f in seqs:
        for k, stype in f.items():
            if k in merged:
                clashes.add(k)
            else:
                merged[k] = stype
    if clashes:
        raise TrackConflictError(frozenset(clashes))
    return seq(merged)


@dataclass(frozen=True)
class RAtom:
    name: str


@dataclass(frozen=True)
class RArrow:
    source: tuple["RType", ...]
    target: "RType"


RType = Union[RAtom, RArrow]


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


def type_support(t: SType | SeqType) -> tuple[PosTree | PosForest, dict[Position, str]]:
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
        return PosForest(frozenset(positions)), labels
    walk_type(t, EPS)
    return PosTree(frozenset(positions)), labels


def type_at(t: SType | SeqType, c: Position) -> SType:
    """Subtype rooted at position c."""
    u: SType | SeqType = t
    for i, k in enumerate(c):
        if isinstance(u, SeqType):
            u = u.get(k)
        elif isinstance(u, SArrow):
            u = u.target if k == 1 else u.source.get(k)
        else:
            raise KeyError(c)
    if isinstance(u, SeqType):
        raise KeyError(c)
    return u


def label_at(t: SType | SeqType, c: Position) -> str:
    u = type_at(t, c)
    return u.name if isinstance(u, SAtom) else ARROW


def identity_iso(t: SType | SeqType) -> ZeroOneIso:
    sup, _ = type_support(t)
    return ZeroOneIso({a: a for a in sup.positions})


def check_type_iso(t1: SType | SeqType, t2: SType | SeqType, iso: ZeroOneIso) -> bool:
    """Whether iso is a label-preserving 01-isomorphism of the type supports."""
    sup1, lab1 = type_support(t1)
    sup2, lab2 = type_support(t2)
    return check_01_iso(sup1, sup2, iso, lab1, lab2)


def iter_type_isos(t1: SType | SeqType, t2: SType | SeqType) -> Iterator[ZeroOneIso]:
    """The type isomorphisms, lazily, in increasing `key()` order; the first
    one is the least and costs O(n log n) (see `iter_01_isos`)."""
    sup1, lab1 = type_support(t1)
    sup2, lab2 = type_support(t2)
    return iter_01_isos(sup1, sup2, lab1, lab2)


def enumerate_type_isos(t1: SType | SeqType, t2: SType | SeqType) -> list[ZeroOneIso]:
    """All type isomorphisms, in increasing `key()` order."""
    return list(iter_type_isos(t1, t2))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith(ARROW, i):
            tokens.append(("arrow", ARROW, i))
            i += 2
            continue
        if c in "(),:":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("atom", text[i:j], i))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
            continue
        raise TypeSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", len(text)))
    return tokens


class _TypeParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_eof(self) -> None:
        kind, value, off = self.peek()
        if kind != "eof":
            raise TypeSyntaxError(f"trailing input {value!r}", off)

    def stype(self) -> SType:
        kind, value, off = self.peek()
        if kind == "atom":
            self.advance()
            return SAtom(value)
        if kind == "(":
            f = self.seq()
            kind2, _, off2 = self.peek()
            if kind2 != "arrow":
                raise TypeSyntaxError("expected '->' after sequence", off2)
            self.advance()
            return SArrow(f, self.stype())
        raise TypeSyntaxError(f"unexpected token {value!r}", off)

    def seq(self) -> SeqType:
        kind, _, off = self.advance()
        if kind != "(":
            raise TypeSyntaxError("expected '('", off)
        if self.peek()[0] == ")":
            self.advance()
            return EMPTY_SEQ
        entries: list[tuple[Track, SType]] = []
        while True:
            kind, value, off = self.advance()
            if kind != "nat":
                raise TypeSyntaxError("expected a track number", off)
            track = int(value)
            if track < 2:
                raise TypeSyntaxError("sequence tracks are >= 2", off)
            kind, _, off = self.advance()
            if kind != ":":
                raise TypeSyntaxError("expected ':' after track", off)
            entries.append((track, self.stype()))
            kind, _, off = self.advance()
            if kind == ")":
                break
            if kind != ",":
                raise TypeSyntaxError("expected ',' or ')'", off)
        return seq(entries)


def parse_type(text: str) -> SType:
    parser = _TypeParser(text)
    t = parser.stype()
    parser.expect_eof()
    return t


def parse_seq_type(text: str) -> SeqType:
    parser = _TypeParser(text)
    f = parser.seq()
    parser.expect_eof()
    return f


def print_type(t: SType | SeqType) -> str:
    if isinstance(t, SeqType):
        inner = ", ".join(f"{k}:{print_type(s)}" for k, s in t.items())
        return f"({inner})"
    if isinstance(t, SAtom):
        return t.name
    return f"{print_type(t.source)} {ARROW} {print_type(t.target)}"


def print_rtype(rt: RType) -> str:
    if isinstance(rt, RAtom):
        return rt.name
    inner = ",".join(print_rtype(s) for s in rt.source)
    return f"[{inner}] {ARROW} {print_rtype(rt.target)}"
