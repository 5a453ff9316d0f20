"""Mutable edges, threads, polarity, consumption and brotherhood.

A mutable edge is a track-labelled edge nested somewhere in a derivation:
an argument edge of the derivation tree, an edge inside the type of a
judgment (right), or an edge inside a context entry (left; the root edges
of context entries are the axiom edges).  Ascendance follows an edge
upward through the typing rules and polar inversion flips it at an axiom;
threads are the equivalence classes, and the interface of an operable
derivation consumes them pairwise at application nodes.

Cost model: every step is O(1) per edge.  Each edge has an integer id, its
index in `edge_key` order, and each edge's ascendant is computed once; at
an application node a left edge finds its premise in a track-to-premise
table built once per (node, variable).  An ascendant always has a larger
id, so one pass in reverse id order gives every edge its highest
ascendant, and polarity, referents and thread kinds are read off those
tops.  Threads are the classes of a union-find over the ids whose roots are
least members, so threads and their edges come out in `edge_key` order
without sorting.  Brothers inside a set of threads are found in one pass
over their parent keys (`brother_pair`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Union

from .positions import EPS, Position, Track, applicative_depth, format_position
from .stypes import print_type
from .derivations import (
    AbsNode,
    AppNode,
    AxNode,
    CheckedDerivation,
    FLAVOR_S,
    Node,
    QuantitativityError,
)
from .reduction import OperableDerivation, make_operable

POS = "+"
NEG = "-"


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


def edge_key(e: Edge) -> tuple:
    if isinstance(e, ArgEdge):
        return (0, e.pos)
    if isinstance(e, RightEdge):
        return (1, e.pos, e.inner)
    return (2, e.pos, e.var, e.inner)


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
    left_edge: Edge
    right_edge: Edge


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


class ThreadAnalysis:
    """Threads and consumption of one (operable) derivation.

    A flavor-S derivation is implicitly operable with identity interfaces.
    """

    def __init__(self, target: OperableDerivation | CheckedDerivation) -> None:
        if isinstance(target, OperableDerivation):
            self.op: Optional[OperableDerivation] = target
            self.checked = target.checked
        else:
            self.checked = target
            self.op = make_operable(target) if target.flavor == FLAVOR_S else None
        # node ids follow position order; `_child[v][k]` is the id of v.k
        self._positions = sorted(self.checked.support())
        self._nodes: list[Node] = [self.checked.node(a) for a in self._positions]
        self._node_id = {a: v for v, a in enumerate(self._positions)}
        self._child: list[dict[Track, int]] = [{} for _ in self._positions]
        for v, a in enumerate(self._positions):
            if a:
                self._child[self._node_id[a[:-1]]][a[-1]] = v
        self._keys, self.edges = self._mutable_edges()
        self._id = {key: i for i, key in enumerate(self._keys)}
        self._build_threads()
        self._arcs: Optional[list[ConsumptionArc]] = None

    # -- edges ---------------------------------------------------------------

    def _mutable_edges(self) -> tuple[list[tuple], list[Edge]]:
        """Every mutable edge with its key, in `edge_key` order.

        A key is `edge_key` with the node position replaced by its id:
        (0, node) for the argument edge into node, (1, node, inner) or
        (2, node, var, inner).  Ids follow
        position order, so keys sort the same way, and hashing or comparing
        a key does not depend on the depth of its node."""
        checked, positions = self.checked, self._positions
        # the argument premises are the nodes whose last letter is >= 2
        args = [v for v, a in enumerate(positions) if a and a[-1] >= 2]
        keys: list[tuple] = [(0, v) for v in args]
        edges: list[Edge] = [ArgEdge(positions[v]) for v in args]
        left_keys: list[tuple] = []
        left_edges: list[Edge] = []
        for v, a in enumerate(positions):
            for c in checked.type_at(a).mutable_positions:
                keys.append((1, v, c))
                edges.append(RightEdge(a, c))
            for x, f in checked.context_at(a).entries:
                for c in f.mutable_positions:
                    left_keys.append((2, v, x, c))
                    left_edges.append(LeftEdge(a, x, c))
        return keys + left_keys, edges + left_edges

    def _index(self, e: Edge) -> int:
        v = self._node_id[e.pos]
        if isinstance(e, ArgEdge):
            return self._id[(0, v)]
        if isinstance(e, RightEdge):
            return self._id[(1, v, e.inner)]
        return self._id[(2, v, e.var, e.inner)]

    def _links(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Each edge's ascendant id (-1 when ascendance-maximal), and the
        pairs of edge ids that polar inversion joins at the axioms."""
        checked, positions, nodes = self.checked, self._positions, self._nodes
        keys, child, index = self._keys, self._child, self._id
        premises: dict[tuple[int, str], dict[Track, int]] = {}
        up = [-1] * len(keys)
        inversions: list[tuple[int, int]] = []
        for i, key in enumerate(keys):
            if key[0] == 0:
                continue
            v = key[1]
            node = nodes[v]
            if isinstance(node, AxNode):
                if key[0] == 2 and len(key[3]) > 1:
                    inversions.append((i, index[(1, v, key[3][1:])]))
            elif key[0] == 1:
                inner = key[2]
                if isinstance(node, AppNode):
                    up[i] = index[(1, child[v][1], (1,) + inner)]
                elif inner[0] == 1:
                    up[i] = index[(1, child[v][0], inner[1:])]
                else:
                    binder = checked.judgments[positions[v]].subject.binder
                    up[i] = index[(2, child[v][0], binder, inner)]
            elif isinstance(node, AppNode):
                _, _, x, inner = key
                table = premises.get((v, x))
                if table is None:
                    # the premise holding each track of x, in the order 1, then
                    # the argument tracks
                    table = premises[(v, x)] = {}
                    for k in [1] + sorted(node.arg_tracks):
                        premise = child[v][k]
                        for track in checked.context_at(positions[premise]).get(x).tracks():
                            table.setdefault(track, premise)
                if inner[0] not in table:
                    raise QuantitativityError(positions[v], x, {inner[0]})
                up[i] = index[(2, table[inner[0]], x, inner)]
            else:
                up[i] = index[(2, child[v][0], key[2], key[3])]
        return up, inversions

    def highest_ascendant(self, e: Edge) -> Edge:
        return self.edges[self._top[self._index(e)]]

    def polarity(self, e: Edge) -> str:
        return self._polarity(self._index(e))

    def _polarity(self, i: int) -> str:
        # an argument edge is its own top and is positive
        return NEG if isinstance(self.edges[self._top[i]], LeftEdge) else POS

    # -- threads ---------------------------------------------------------------

    def _build_threads(self) -> None:
        edges = self.edges
        n = len(edges)
        up, inversions = self._links()
        # an ascendant sits at a longer position, with the same or a later
        # edge kind, so its id is larger: one pass in reverse id order
        # resolves every top
        top = list(range(n))
        for i in range(n - 1, -1, -1):
            if up[i] >= 0:
                top[i] = top[up[i]]
        self._top = top
        uf = UnionFind(n)
        for i, j in enumerate(up):
            if j >= 0:
                uf.union(i, j)
        for i, j in inversions:
            uf.union(i, j)
        self.threads: list[Thread] = []
        self._thread_of = [0] * n
        for tid, members in enumerate(uf.classes()):
            referent = edges[self._referent(members)]
            kind = (
                "argument"
                if isinstance(referent, ArgEdge)
                else "inner" if isinstance(referent, RightEdge) else "axiom"
            )
            first = edges[members[0]]
            label = edge_label(first)
            for i in members:
                if edge_label(edges[i]) != label:
                    raise ThreadLabelError(tid, first, edges[i])
                self._thread_of[i] = tid
            self.threads.append(
                Thread(tid, tuple(edges[i] for i in members), referent, label, kind)
            )

    def _referent(self, members: list[int]) -> int:
        """The least inner top (a right edge at an axiom), else the least
        axiom edge among the tops; a lone argument edge is its own referent."""
        keys, nodes = self._keys, self._nodes
        if len(members) == 1 and keys[members[0]][0] == 0:
            return members[0]
        inner = axiom = len(keys)
        for i in members:
            t = self._top[i]
            key = keys[t]
            if key[0] == 1 and isinstance(nodes[key[1]], AxNode):
                inner = min(inner, t)
            elif key[0] == 2 and len(key[3]) == 1:
                axiom = min(axiom, t)
        if inner < len(keys):
            return inner
        if axiom < len(keys):
            return axiom
        raise AssertionError("every thread has an inner, axiom or argument referent")

    def thread_of(self, e: Edge) -> int:
        return self._thread_of[self._index(e)]

    def thread(self, tid: int) -> Thread:
        return self.threads[tid]

    def thread_ad(self, tid: int) -> int:
        thread = self.threads[tid]
        if thread.kind == "axiom":
            raise ValueError("applicative depth is undefined for axiom threads")
        return self._ref_ad(thread)

    def _ref_ad(self, thread: Thread) -> int:
        # for argument edges the position already ends with the argument track
        return applicative_depth(thread.referent.pos)

    # -- consumption -----------------------------------------------------------

    def consumption(self) -> list[ConsumptionArc]:
        if self._arcs is not None:
            return self._arcs
        if self.op is None:
            raise ValueError("consumption needs an interface (operable derivation)")
        edges, index, child, thread_of = self.edges, self._id, self._child, self._thread_of
        arcs = []
        for a in self.checked.app_positions():
            phi = self.op.interface[a]
            v = self._node_id[a]
            for p in self.checked.left_seq(a).mutable_positions:
                left = index[(1, child[v][1], p)]
                image = phi.mapping[p]
                if len(p) == 1:
                    right = index[(0, child[v][image[0]])]
                else:
                    right = index[(1, child[v][image[0]], image[1:])]
                arcs.append(
                    ConsumptionArc(
                        thread_of[left],
                        thread_of[right],
                        a,
                        self._polarity(left),
                        self._polarity(right),
                        edges[left],
                        edges[right],
                    )
                )
        self._arcs = arcs
        return arcs

    # -- brotherhood -----------------------------------------------------------

    def brothers(self, t1: int, t2: int) -> bool:
        """Sibling edges somewhere, or two distinct axiom threads."""
        if t1 == t2:
            return False
        th1, th2 = self.threads[t1], self.threads[t2]
        if th1.kind == "axiom" and th2.kind == "axiom":
            return True
        return bool(self._parent_keys[t1] & self._parent_keys[t2])

    def brother_pair(self, tids: Iterable[int]) -> Optional[tuple[int, int]]:
        """Two brother threads among `tids`, or None, in one pass over their
        parent keys: a key met in two threads, or a second axiom thread."""
        owner: dict[tuple, int] = {}
        axiom: Optional[int] = None
        for t in tids:
            if self.threads[t].kind == "axiom":
                if axiom is not None:
                    return axiom, t
                axiom = t
            for key in self._parent_keys[t]:
                first = owner.setdefault(key, t)
                if first != t:
                    return first, t
        return None

    @cached_property
    def _parent_keys(self) -> list[frozenset[tuple]]:
        """Per thread, the nodes its edges hang off: an edge key without its
        last letter; edges that share one are structural siblings."""
        sets: list[set[tuple]] = [set() for _ in self.threads]
        for i, key in enumerate(self._keys):
            if key[0] == 0:
                parent = (0, self._node_id[self.edges[i].pos[:-1]])
            else:
                parent = key[:-1] + (key[-1][:-1],)
            sets[self._thread_of[i]].add(parent)
        return [frozenset(keys) for keys in sets]

    def find_brother_chain(self) -> Optional[BrotherChain]:
        """A consumption path between two brother threads, if one exists."""
        arcs = self.consumption()
        adjacency: dict[int, list[tuple[int, Position]]] = {}
        for arc in arcs:
            adjacency.setdefault(arc.left, []).append((arc.right, arc.pos))
            adjacency.setdefault(arc.right, []).append((arc.left, arc.pos))
        component: dict[int, int] = {}
        for tid in range(len(self.threads)):
            if tid in component:
                continue
            stack = [tid]
            component[tid] = tid
            while stack:
                cur = stack.pop()
                for nxt, _ in adjacency.get(cur, []):
                    if nxt not in component:
                        component[nxt] = tid
                        stack.append(nxt)
        by_component: dict[int, list[int]] = {}
        for tid, root in component.items():
            by_component.setdefault(root, []).append(tid)
        for members in by_component.values():
            for t1, t2 in itertools.combinations(sorted(members), 2):
                if self.brothers(t1, t2):
                    return self._bfs_chain(adjacency, t1, t2)
        return None

    def _bfs_chain(self, adjacency, start: int, goal: int) -> BrotherChain:
        previous: dict[int, tuple[int, Position]] = {start: (start, EPS)}
        queue = [start]
        while queue:
            cur = queue.pop(0)
            if cur == goal:
                break
            for nxt, pos in adjacency.get(cur, []):
                if nxt not in previous:
                    previous[nxt] = (cur, pos)
                    queue.append(nxt)
        threads = [goal]
        positions = []
        cur = goal
        while cur != start:
            cur, pos = previous[cur]
            threads.append(cur)
            positions.append(pos)
        threads.reverse()
        positions.reverse()
        return BrotherChain(tuple(threads), tuple(positions))

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
                left_ad = self._ref_ad(self.threads[arc.left])
                right_ad = self._ref_ad(self.threads[arc.right])
                if not left_ad < right_ad:
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
    for a in sorted(checked.support()):
        node = checked.node(a)
        kind = "ax" if isinstance(node, AxNode) else "abs" if isinstance(node, AbsNode) else "app"
        label = f"{format_position(a)}\\n{kind} : {print_type(checked.type_at(a))}"
        lines.append(f'  "{format_position(a)}" [label="{label}"];')
    for a in sorted(checked.support()):
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
    if analysis.op is not None:
        for arc in analysis.consumption():
            lines.append(
                f"t{arc.left}{arc.left_polarity} ->{format_position(arc.pos)}"
                f" t{arc.right}{arc.right_polarity}"
            )
    return "\n".join(lines) + "\n"

