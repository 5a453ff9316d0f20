"""Mutable edges, threads, polarity, consumption and brotherhood.

A mutable edge is a track-labelled edge nested somewhere in a derivation:
an argument edge of the derivation tree, an edge inside the type of a
judgment (right), or an edge inside a context entry (left; the root edges
of context entries are the axiom edges).  Ascendance follows an edge
upward through the typing rules and polar inversion flips it at an axiom;
threads are the equivalence classes, and the interface of an operable
derivation consumes them pairwise at application nodes.

Cost model: an edge is an integer id with no object of its own.  Ids
follow edge order in contiguous blocks: one per argument node, then
per node the mutable positions of its type (right edges), then per (node,
variable) the context entry (left edges).  No context is built: by
quantitativity the entry of x at v is the axioms below v that x's binder
binds, read off the checker's binder index, and its block holds, per such
axiom in track order, a copy of the axiom's own left block (its track,
then its right block).  A copy ascends unchanged to what it copies, so
only argument edges, right blocks and each axiom's own left block are
stored, with flat arrays of label, kind, highest ascendant and thread:
linear in the types, however deep the contexts.  Every other left block
keeps its first id, from sizes summed bottom-up.  Right tops resolve as
slice copies in reverse node order; polarity, referents and thread kinds
are read off the tops, and brothers off the tops' parents.  Threads are
ordered by least edge, and the least copy of an own-block edge is the one
at the top of its chain (its binder's body, or the root when free).
Lookups by edge go to the copied edge in O(log n).  Edge, `Thread` and arc
objects, and the copies, are built only when read (`edges`, `threads`,
`referent`, `consumption`, reports); the id accessors (`arg_thread`,
`right_threads`, `axiom_thread`, `thread_at`, `arc_threads`),
`thread_size`, which counts the copies, and so `trivialize`, build none.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Optional, Union

from .positions import EPS, Position, Track, applicative_depth, format_position
from .stypes import print_type
from .derivations import AbsNode, AxNode, Node
from .reduction import OperableDerivation

POS = "+"
NEG = "-"

# edge kinds, one byte per stored edge, read at the tops: an inner edge is a
# right edge at an axiom, an axiom edge the root edge of an axiom's context;
# a thread's referent is its least top of the least kind
_INNER, _AXIOM, _ARG, _RIGHT, _LEFT = range(5)
_KIND_NAME = ("inner", "axiom", "argument")


@dataclass(frozen=True)
class ArgEdge:
    pos: Position  # a.k with k >= 2


@dataclass(frozen=True)
class RightEdge:
    pos: Position
    inner: Position  # c.k in supp_mut(T(pos))


@dataclass(frozen=True)
class LeftEdge:
    pos: Position
    var: str
    inner: Position  # k.c in supp_mut(C(pos)(var)); |inner| == 1 is an axiom edge


Edge = Union[ArgEdge, RightEdge, LeftEdge]


def edge_label(e: Edge) -> Track:
    if isinstance(e, ArgEdge):
        return e.pos[-1]
    return e.inner[-1]


def format_edge(e: Edge) -> str:
    if isinstance(e, ArgEdge):
        return f"arg {format_position(e.pos)}"
    if isinstance(e, RightEdge):
        return f"({format_position(e.pos)}, {format_position(e.inner)})"
    return f"({format_position(e.pos)}, {e.var}, {format_position(e.inner)})"


@dataclass(frozen=True)
class Thread:
    id: int
    edges: tuple[Edge, ...]
    referent: Edge
    label: Track
    kind: str  # "argument" | "inner" | "axiom"


@dataclass(frozen=True)
class ConsumptionArc:
    left: int
    right: int
    pos: Position
    left_polarity: str
    right_polarity: str


@dataclass(frozen=True)
class BrotherChain:
    threads: tuple[int, ...]
    positions: tuple[Position, ...]


class UnionFind:
    """Union-find over the ints 0..n-1 with path compression (Tarjan 1975).

    The root of a class is its least member, so the classes come out in
    the order of their least members without sorting."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra < rb:
            self.parent[rb] = ra
        elif rb < ra:
            self.parent[ra] = rb

    def classes(self) -> list[list[int]]:
        """Every class, sorted, in the order of their least members."""
        grouped: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            grouped.setdefault(self.find(x), []).append(x)
        return list(grouped.values())


class ThreadLabelError(ValueError):
    """Two edges of one thread carry different tracks.

    Ascendance and polar inversion keep the track, so this cannot happen on
    a checked derivation; the thread and the two edges are the witness."""

    def __init__(self, thread: int, first: Edge, other: Edge) -> None:
        super().__init__(
            f"thread t{thread} joins {format_edge(first)} on track {edge_label(first)}"
            f" and {format_edge(other)} on track {edge_label(other)}"
        )
        self.thread = thread
        self.edges = (first, other)


def _offset(inners: tuple[Position, ...], inner: Position) -> int:
    """The index of inner among a block's sorted inner positions."""
    j = bisect_left(inners, inner)
    if j == len(inners) or inners[j] != inner:
        raise KeyError(inner)
    return j


class _Built(Sequence):
    """A read-only list of n items, each built when it is read."""

    def __init__(self, n: int, build: Callable[[int], object]) -> None:
        self._ids, self._build = range(n), build

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i: Union[int, slice]):
        if isinstance(i, slice):
            return list(map(self._build, self._ids[i]))
        return self._build(self._ids[i])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


class ThreadAnalysis:
    """Threads and consumption of one operable derivation."""

    def __init__(self, op: OperableDerivation) -> None:
        self.op, self.checked = op, op.checked
        # node ids follow position order, so the subtree of v is the ids from
        # v up to `_end[v]`; `_child[v][k]` is the id of v.k
        self._positions = self.checked.preorder
        self._nodes: list[Node] = [self.checked.node(a) for a in self._positions]
        self._node_id = {a: v for v, a in enumerate(self._positions)}
        self._child: list[dict[Track, int]] = [{} for _ in self._positions]
        self._up = [-1] * len(self._positions)
        self._end = list(range(1, len(self._positions) + 1))
        for v, a in enumerate(self._positions):
            if a:
                self._up[v] = self._node_id[a[:-1]]
                self._child[self._up[v]][a[-1]] = v
        for v in range(len(self._positions) - 1, 0, -1):
            self._end[self._up[v]] = max(self._end[self._up[v]], self._end[v])
        self._held_cache: dict[int, tuple[list[int], list[int]]] = {}
        self._layout()
        self._build_threads(*self._resolve_tops())

    # -- edges ---------------------------------------------------------------

    def _mutable(self, v: int) -> tuple[Position, ...]:
        return self.checked.type_at(self._positions[v]).mutable_positions

    def _var(self, u: int) -> str:
        return self.checked.subject_at(self._positions[u]).name

    def _binder(self, u: int) -> Union[Position, str]:
        """The abstraction binding axiom u, or its variable's name when free."""
        binder = self.checked.binders[self._positions[u]]
        return self._var(u) if binder is None else binder

    def _own_size(self, u: int) -> int:
        """The size of axiom u's own left block: its track and its right block."""
        return self._right_start[u + 1] - self._right_start[u] + 1

    def _layout(self) -> None:
        """Number the edges in blocks.  Labels and kinds are stored for the
        argument edges, the right blocks and, after them, each axiom's own
        left block.  The left block of (v, x) holds, per axiom of x's binder
        below v in track order, a copy of that axiom's own block; only its
        first id is kept, its size summed bottom-up."""
        checked, positions, nodes, child = self.checked, self._positions, self._nodes, self._child
        self._arg_nodes = [v for v, a in enumerate(positions) if a and a[-1] >= 2]
        self._arg_id = {v: i for i, v in enumerate(self._arg_nodes)}
        self._label = label = [positions[v][-1] for v in self._arg_nodes]
        self._kind = kind = bytearray((_ARG,)) * len(label)
        self._right_start = rs = []
        for v, node in enumerate(nodes):
            rs.append(len(label))
            label.extend(map(itemgetter(-1), self._mutable(v)))
            k = _INNER if isinstance(node, AxNode) else _RIGHT
            kind.extend(bytes((k,)) * (len(label) - rs[v]))
        rs.append(len(label))
        self._axioms = [v for v, node in enumerate(nodes) if isinstance(node, AxNode)]
        self._own = own = [-1] * len(nodes)
        by_binder: dict[Union[Position, str], list[int]] = {}
        for u in self._axioms:
            own[u] = len(label)
            label.append(nodes[u].track)
            label.extend(label[rs[u] : rs[u + 1]])
            kind.append(_AXIOM)
            kind.extend(bytes((_LEFT,)) * (rs[u + 1] - rs[u]))
            by_binder.setdefault(self._binder(u), []).append(u)
        self._own_starts = [own[u] for u in self._axioms]
        self._bound = {b: sorted(us, key=lambda u: nodes[u].track) for b, us in by_binder.items()}
        # per node and variable, the entry's size and binder, bottom-up
        entries: list[dict[str, tuple[int, Union[Position, str]]]] = [{} for _ in positions]
        for v in range(len(positions) - 1, -1, -1):
            if isinstance(nodes[v], AxNode):
                entries[v] = {self._var(v): (self._own_size(v), self._binder(v))}
            elif isinstance(nodes[v], AbsNode):
                x = checked.subject_at(positions[v]).binder
                entries[v] = {y: entry for y, entry in entries[child[v][0]].items() if y != x}
            else:
                merged = entries[v]
                for c in child[v].values():
                    for x, (n, binder) in entries[c].items():
                        merged[x] = (merged[x][0] + n, binder) if x in merged else (n, binder)
        # (first id, node, variable, binder) per left block
        self._blocks: list[tuple[int, int, str, Union[Position, str]]] = []
        self._block_of: list[dict[str, int]] = [{} for _ in positions]
        n = rs[-1]
        for v, entry in enumerate(entries):
            for x in sorted(entry):
                size, binder = entry[x]
                self._block_of[v][x] = len(self._blocks)
                self._blocks.append((n, v, x, binder))
                n += size
        self._n_edges = n
        self._block_starts = [block[0] for block in self._blocks]
        # each stored edge's least copy: itself, or for an edge of an axiom's
        # own block its copy in the block at the top of its chain (its
        # binder's body, or the root for a free variable)
        self._first_copy = first = list(range(len(label)))
        for binder, axioms in self._bound.items():
            top = 0 if isinstance(binder, str) else self._node_id[binder + (0,)]
            i = self._blocks[self._block_of[top][self._var(axioms[0])]][0]
            for u in axioms:
                size = self._own_size(u)
                first[own[u] : own[u] + size] = range(i, i + size)
                i += size

    def _resolve_tops(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Each stored edge's highest ascendant, and the pairs of tops that
        polar inversion joins (at an axiom, its own left edge j and right edge
        j-1).  An axiom's own left block is its own top.  An application's
        right block ascends onto the head of its left premise's, an
        abstraction's onto its body's and then onto the binder's entry there,
        which copies every bound axiom's own block in track order."""
        positions, nodes, child = self._positions, self._nodes, self._child
        rs, own = self._right_start, self._own
        top = list(range(len(self._label)))
        inversions: list[tuple[int, int]] = []
        for v in range(len(positions) - 1, -1, -1):
            node, s, n = nodes[v], rs[v], rs[v + 1] - rs[v]
            if isinstance(node, AxNode):
                inversions.extend((own[v] + j, s + j - 1) for j in range(1, n + 1))
            elif isinstance(node, AbsNode):
                body = child[v][0]
                t = rs[body + 1] - rs[body]
                top[s : s + t] = top[rs[body] : rs[body] + t]
                if n > t:
                    top[s + t : s + n] = itertools.chain.from_iterable(
                        range(own[u], own[u] + self._own_size(u)) for u in self._bound[positions[v]]
                    )
            else:
                head = rs[child[v][1]]
                top[s : s + n] = top[head : head + n]
        return top, inversions

    def _inner(self, u: int, j: int) -> Position:
        """The inner position of edge j of axiom u's own left block."""
        return (self._nodes[u].track,) + (self._mutable(u)[j - 1] if j else EPS)

    def _held(self, b: int) -> tuple[list[int], list[int]]:
        """The axioms of left block b in track order, and the offsets of their
        copies in it, with the block's size last; built once per block read."""
        held = self._held_cache.get(b)
        if held is None:
            _, v, _, binder = self._blocks[b]
            axioms = [u for u in self._bound[binder] if v <= u < self._end[v]]
            offsets = list(itertools.accumulate(map(self._own_size, axioms), initial=0))
            held = self._held_cache[b] = (axioms, offsets)
        return held

    def _edge(self, i: int) -> Edge:
        if i < len(self._arg_nodes):
            return ArgEdge(self._positions[self._arg_nodes[i]])
        rs = self._right_start
        if i < rs[-1]:
            v = bisect_right(rs, i) - 1
            return RightEdge(self._positions[v], self._mutable(v)[i - rs[v]])
        b = bisect_right(self._block_starts, i) - 1
        start, v, x, _ = self._blocks[b]
        axioms, offsets = self._held(b)
        k = bisect_right(offsets, i - start) - 1
        return LeftEdge(self._positions[v], x, self._inner(axioms[k], i - start - offsets[k]))

    def _stored_edge(self, c: int) -> Edge:
        """The stored edge c; an edge of an axiom's own block lies at the axiom."""
        if c < self._right_start[-1]:
            return self._edge(c)
        u = self._axioms[bisect_right(self._own_starts, c) - 1]
        return LeftEdge(self._positions[u], self._var(u), self._inner(u, c - self._own[u]))

    def _index(self, e: Edge) -> int:
        if isinstance(e, ArgEdge):
            return self._arg_id[self._node_id[e.pos]]
        return self._id(e.pos, e.var if isinstance(e, LeftEdge) else None, e.inner)

    def _id(self, pos: Position, var: Optional[str], inner: Position) -> int:
        """The right edge (pos, inner), or with a variable the stored edge the
        left edge (pos, var, inner) copies: the same offset in the own block
        of the entry's axiom on inner's first track."""
        v = self._node_id[pos]
        if var is None:
            return self._right_start[v] + _offset(self._mutable(v), inner)
        binder = self._blocks[self._block_of[v][var]][3]
        u = self._node_id[self.checked.bound_by(binder)[inner[0]]]
        if not v <= u < self._end[v]:
            raise KeyError(inner)
        if len(inner) == 1:
            return self._own[u]
        return self._own[u] + 1 + _offset(self._mutable(u), inner[1:])

    @property
    def edges(self) -> Sequence[Edge]:
        """Every mutable edge in edge order, built when read."""
        return _Built(self._n_edges, self._edge)

    def highest_ascendant(self, e: Edge) -> Edge:
        return self._stored_edge(self._top[self._index(e)])

    def polarity(self, e: Edge) -> str:
        return self._polarity(self._index(e))

    def _polarity(self, i: int) -> str:
        # an argument edge is its own top and is positive
        return NEG if self._kind[self._top[i]] in (_LEFT, _AXIOM) else POS

    # -- threads ---------------------------------------------------------------

    def _build_threads(self, top: list[int], inversions: list[tuple[int, int]]) -> None:
        """Threads are the classes of the tops under inversion, ordered by
        their least edge: an argument or right edge, or else the least copy
        of an edge of an axiom's own block."""
        kind, label, n = self._kind, self._label, len(top)
        self._top = top
        uf = UnionFind(n)
        for i, j in inversions:
            uf.union(i, j)
        root = {t: uf.find(t) for t in sorted(set(top))}
        least: dict[int, int] = {}
        for t, i in zip(top, self._first_copy):
            if i < least.get(root[t], self._n_edges):
                least[root[t]] = i
        order = sorted(least, key=least.__getitem__)
        tid = {r: k for k, r in enumerate(order)}
        tid_of = [0] * n
        self._tops: list[list[int]] = [[] for _ in tid]
        for t, r in root.items():
            tid_of[t] = tid[r]
            self._tops[tid[r]].append(t)
        self._thread_of = thread_of = list(map(tid_of.__getitem__, top))
        self._thread_label = [label[tops[0]] for tops in self._tops]
        top_labels = list(map(label.__getitem__, top))
        if top_labels != label or any(label[i] != label[j] for i, j in inversions):
            t, i = min((t, i) for i, t in enumerate(thread_of) if label[i] != self._thread_label[t])
            raise ThreadLabelError(t, self._edge(least[order[t]]), self._stored_edge(i))
        self._referent = [min(tops, key=kind.__getitem__) for tops in self._tops]
        if any(kind[r] > _ARG for r in self._referent):
            raise AssertionError("every thread has an inner, axiom or argument referent")

    def thread_of(self, e: Edge) -> int:
        return self._thread_of[self._index(e)]

    def arg_thread(self, pos: Position) -> int:
        """The thread of the argument edge into the node at pos."""
        return self._thread_of[self._arg_id[self._node_id[pos]]]

    def right_threads(self, pos: Position) -> list[int]:
        """The threads of the node's right block, in `mutable_positions` order."""
        v = self._node_id[pos]
        return self._thread_of[self._right_start[v] : self._right_start[v + 1]]

    def axiom_thread(self, pos: Position) -> int:
        """The thread of the axiom edge of the axiom at pos: the head of its
        own left block."""
        return self._thread_of[self._own[self._node_id[pos]]]

    def thread_at(self, pos: Position, inner: Position, var: Optional[str] = None) -> int:
        """The thread of the right edge (pos, inner), or left edge (pos, var, inner)."""
        return self._thread_of[self._id(pos, var, inner)]

    @property
    def threads(self) -> Sequence[Thread]:
        """Every thread in id order, built when read."""
        return _Built(len(self._tops), self.thread)

    def thread(self, tid: int) -> Thread:
        edges, ref = tuple(map(self._edge, self._members[tid])), self.referent(tid)
        return Thread(tid, edges, ref, self._thread_label[tid], self.thread_kind(tid))

    def referent(self, tid: int) -> Edge:
        return self._stored_edge(self._referent[tid])

    def thread_kind(self, tid: int) -> str:
        return _KIND_NAME[self._kind[self._referent[tid]]]

    def thread_label(self, tid: int) -> Track:
        return self._thread_label[tid]

    def thread_size(self, tid: int) -> int:
        """The number of edges in the thread."""
        return self._sizes[tid]

    def thread_ad(self, tid: int) -> int:
        if self.thread_kind(tid) == "axiom":
            raise ValueError("applicative depth is undefined for axiom threads")
        return self._ref_ad(tid)

    def _ref_ad(self, tid: int) -> int:
        # for argument edges the position already ends with the argument track
        return applicative_depth(self.referent(tid).pos)

    @cached_property
    def _sizes(self) -> Counter:
        """Each thread's number of edges, counted from the stored edges: an
        argument or right edge once, an edge of axiom u's own block once per
        node from u up to the top of its chain (its binder's body, or the
        root when free), where a left block copies it."""
        thread_of, own = self._thread_of, self._own
        sizes = Counter(thread_of[: self._right_start[-1]])
        for binder, axioms in self._bound.items():
            top = 0 if isinstance(binder, str) else len(binder) + 1
            for u in axioms:
                copies = len(self._positions[u]) - top + 1
                for c in range(own[u], own[u] + self._own_size(u)):
                    sizes[thread_of[c]] += copies
        return sizes

    @cached_property
    def _members(self) -> list[list[int]]:
        """Each thread's edge ids in order, the copies of own blocks included."""
        members: list[list[int]] = [[] for _ in self._tops]
        thread_of, own = self._thread_of, self._own
        for i in range(self._right_start[-1]):
            members[thread_of[i]].append(i)
        for b, (i, _, _, _) in enumerate(self._blocks):
            for u in self._held(b)[0]:
                for c in range(own[u], own[u] + self._own_size(u)):
                    members[thread_of[c]].append(i)
                    i += 1
        return members

    # -- consumption -----------------------------------------------------------

    @cached_property
    def _consumed(self) -> list[tuple[int, int, int]]:
        """(node, left edge, right edge) per consumption arc.  The left
        sequence's edges end its left premise's right block; the interface
        maps each onto an argument edge or a right edge of an argument
        premise."""
        rs, child, out = self._right_start, self._child, []
        for a in self.checked.app_positions():
            phi, v = self.op.interface[a], self._node_id[a]
            inners = self.checked.left_seq(a).mutable_positions
            for left, p in enumerate(inners, rs[child[v][1] + 1] - len(inners)):
                image = phi(p)
                premise = child[v][image[0]]
                if len(p) == 1:
                    right = self._arg_id[premise]
                else:
                    right = rs[premise] + _offset(self._mutable(premise), image[1:])
                out.append((v, left, right))
        return out

    def arc_threads(self) -> list[tuple[int, int]]:
        """The left and right thread of each arc, in `consumption` order,
        with no arc or edge built."""
        thread_of = self._thread_of
        return [(thread_of[left], thread_of[right]) for _, left, right in self._consumed]

    def consumption(self) -> list[ConsumptionArc]:
        return self._arcs

    @cached_property
    def _arcs(self) -> list[ConsumptionArc]:
        thread_of, pol, positions = self._thread_of, self._polarity, self._positions
        return [
            ConsumptionArc(thread_of[left], thread_of[right], positions[v], pol(left), pol(right))
            for v, left, right in self._consumed
        ]

    # -- brotherhood -----------------------------------------------------------

    def brothers(self, t1: int, t2: int) -> bool:
        """Sibling edges somewhere, or two distinct axiom threads."""
        return t1 != t2 and self.brother_pair((t1, t2)) is not None

    def brother_pair(self, tids: Iterable[int]) -> Optional[tuple[int, int]]:
        """Two brother threads among `tids`, or None, in one pass over their
        tops' parents: a parent met in two threads, or a second axiom
        thread."""
        parent = self._parent
        owner: dict[int, int] = {}
        axiom: Optional[int] = None
        for t in tids:
            if self.thread_kind(t) == "axiom":
                if axiom is not None:
                    return axiom, t
                axiom = t
            for i in self._tops[t]:
                first = owner.setdefault(parent[i], t)
                if first != t:
                    return first, t
        return None

    @cached_property
    def _parent(self) -> dict[int, int]:
        """Per top, an int its structural siblings share.  Ascendance maps
        siblings to siblings, except the root edges of a context entry at an
        application, which lie on axiom threads; so threads hold sibling
        edges iff they hold sibling tops or are both axiom threads."""
        parent = {i: -1 - self._up[v] for i, v in enumerate(self._arg_nodes)}
        for v in self._axioms:
            # the right block, and the own left block after its axiom edge
            left = self._own[v]
            parent[left] = left
            for start in (self._right_start[v], left + 1):
                first: dict[Position, int] = {}
                for i, c in enumerate(self._mutable(v), start):
                    parent[i] = first.setdefault(c[:-1], i)
        return parent

    def find_brother_chain(self) -> Optional[BrotherChain]:
        """A consumption path between two brother threads, if one exists."""
        arcs = self.consumption()
        adjacency: dict[int, list[tuple[int, Position]]] = {}
        for arc in arcs:
            adjacency.setdefault(arc.left, []).append((arc.right, arc.pos))
            adjacency.setdefault(arc.right, []).append((arc.left, arc.pos))
        components = UnionFind(len(self._tops))
        for arc in arcs:
            components.union(arc.left, arc.right)
        for members in components.classes():
            pair = self.brother_pair(members)
            if pair is not None:
                return self._bfs_chain(adjacency, *pair)
        return None

    def _bfs_chain(self, adjacency, start: int, goal: int) -> BrotherChain:
        previous: dict[int, tuple[int, Position]] = {start: (start, EPS)}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            if cur == goal:
                break
            for nxt, pos in adjacency.get(cur, []):
                if nxt not in previous:
                    previous[nxt] = (cur, pos)
                    queue.append(nxt)
        threads, positions, cur = [goal], [], goal
        while cur != start:
            cur, pos = previous[cur]
            threads.append(cur)
            positions.append(pos)
        return BrotherChain(tuple(reversed(threads)), tuple(reversed(positions)))

    # -- consistency checks --------------------------------------------------

    def check_uniqueness_of_consumption(self) -> bool:
        """Per thread and polarity, at most one consumption involvement."""
        seen: dict[tuple[int, str], int] = {}
        for arc in self.consumption():
            for tid, pol in ((arc.left, arc.left_polarity), (arc.right, arc.right_polarity)):
                seen[(tid, pol)] = seen.get((tid, pol), 0) + 1
        return all(count <= 1 for count in seen.values())

    def check_monotonicity(self) -> bool:
        """Positive left-consumption strictly increases applicative depth."""
        for arc in self.consumption():
            if arc.left_polarity == POS:
                if not self._ref_ad(arc.left) < self._ref_ad(arc.right):
                    return False
        return True


# -- reports -------------------------------------------------------------------

_PALETTE = [
    "crimson",
    "royalblue",
    "forestgreen",
    "darkorange",
    "purple",
    "teal",
    "deeppink",
    "saddlebrown",
    "olive",
    "slategray",
]


def dot_export(analysis: ThreadAnalysis) -> str:
    """The derivation tree with argument edges colored per thread."""
    checked = analysis.checked
    lines = ["digraph derivation {", '  node [shape=box, fontsize=10];']
    for a in checked.preorder:
        node = checked.node(a)
        kind = "ax" if isinstance(node, AxNode) else "abs" if isinstance(node, AbsNode) else "app"
        label = f"{format_position(a)}\\n{kind} : {print_type(checked.type_at(a))}"
        lines.append(f'  "{format_position(a)}" [label="{label}"];')
    for a in checked.preorder:
        for k in checked.children(a):
            child = a + (k,)
            if k >= 2:
                tid = analysis.thread_of(ArgEdge(child))
                color = _PALETTE[tid % len(_PALETTE)]
                extra = f' [label="{k} (t{tid})", color={color}, penwidth=2]'
            else:
                extra = f' [label="{k}"]'
            lines.append(f'  "{format_position(a)}" -> "{format_position(child)}"{extra};')
    lines.append("  // legend: thread id -> track label -> polarities")
    for thread in analysis.threads:
        pols = sorted({analysis.polarity(e) for e in thread.edges})
        lines.append(
            f"  // t{thread.id}: label {thread.label}, {thread.kind},"
            f" ref {format_edge(thread.referent)}, polarities {''.join(pols)}"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def text_report(analysis: ThreadAnalysis) -> str:
    lines = []
    for thread in analysis.threads:
        occurrences = ", ".join(
            f"{format_edge(e)}{analysis.polarity(e)}" for e in thread.edges
        )
        lines.append(
            f"thread t{thread.id} [label {thread.label}, {thread.kind},"
            f" ref {format_edge(thread.referent)}]: {occurrences}"
        )
    for arc in analysis.consumption():
        lines.append(
            f"t{arc.left}{arc.left_polarity} ->{format_position(arc.pos)}"
            f" t{arc.right}{arc.right_polarity}"
        )
    return "\n".join(lines) + "\n"

