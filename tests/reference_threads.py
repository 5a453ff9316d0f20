"""The chain-walking thread analysis, kept as a reference oracle.

This is the original quadratic construction: ascendance is memoized per
edge but every top is found by walking the whole chain again, the
union-find is keyed by the edge dataclasses, and brothers are searched
over all pairs of threads in a class.  `test_threads_differential.py`
compares `seqtypes.threads.ThreadAnalysis` and the closure/track steps of
`seqtypes.trivialize` against it.

`build_relabelling` and `residual_thread` are the Edge-keyed versions of
the `seqtypes.trivialize` functions, kept verbatim: they look every thread
up through `thread_of(ArgEdge(...))`-style keys and `thread(tid).referent`.
`test_thread_lookups_differential.py` compares the id-based ones against
them.  `edge_key` is the edge order that the library's edge ids follow.

The contexts come from `reference_checker.check_derivation`, which builds
every node's context independently of the library's per-binder index.
"""

from __future__ import annotations

import itertools
from typing import Optional

from seqtypes.derivations import AbsNode, AppNode, AxNode, JudgmentIsos
from seqtypes.positions import Position, Track, collapse_position
from seqtypes.reduction import OperableDerivation
from seqtypes.terms import Abs, Var, subterm_at
from seqtypes.threads import (
    NEG,
    POS,
    ArgEdge,
    ConsumptionArc,
    Edge,
    LeftEdge,
    RightEdge,
    Thread,
    ThreadAnalysis,
    edge_label,
)
from seqtypes.trivialize import ThreadClasses

import reference_checker
from reference_relabelling import DerivationRelabelling


def edge_key(e: Edge) -> tuple:
    if isinstance(e, ArgEdge):
        return (0, e.pos)
    if isinstance(e, RightEdge):
        return (1, e.pos, e.inner)
    return (2, e.pos, e.var, e.inner)


class DictUnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def parent_key(e: Edge) -> tuple:
    if isinstance(e, ArgEdge):
        return ("arg", e.pos[:-1])
    if isinstance(e, RightEdge):
        return ("right", e.pos, e.inner[:-1])
    return ("left", e.pos, e.var, e.inner[:-1])


class ReferenceAnalysis:
    """Threads, polarity and consumption of an operable derivation."""

    def __init__(self, op: OperableDerivation) -> None:
        self.op = op
        self.checked = op.checked
        self.contexts = reference_checker.check_derivation(op.checked.derivation)
        self.edges = self._mutable_edges()
        self._asc_memo: dict[Edge, Optional[Edge]] = {}
        self._build_threads()

    def _mutable_edges(self) -> list[Edge]:
        checked = self.checked
        out: list[Edge] = []
        for a in checked.support():
            node = checked.node(a)
            if isinstance(node, AppNode):
                out.extend(ArgEdge(a + (k,)) for k in node.arg_tracks)
            sup = checked.type_at(a).support
            out.extend(RightEdge(a, c) for c in sup if c and c[-1] >= 2)
            for x, f in self.contexts.context_at(a).entries:
                supf = f.support
                out.extend(LeftEdge(a, x, c) for c in supf if c and c[-1] >= 2)
        return sorted(out, key=edge_key)

    def asc(self, e: Edge) -> Optional[Edge]:
        if e not in self._asc_memo:
            self._asc_memo[e] = self._asc(e)
        return self._asc_memo[e]

    def _asc(self, e: Edge) -> Optional[Edge]:
        checked = self.checked
        if isinstance(e, ArgEdge):
            return None
        node = checked.node(e.pos)
        if isinstance(e, RightEdge):
            if isinstance(node, AppNode):
                return RightEdge(e.pos + (1,), (1,) + e.inner)
            if isinstance(node, AbsNode):
                subj = subterm_at(checked.term, e.pos)
                assert isinstance(subj, Abs)
                if e.inner[0] == 1:
                    return RightEdge(e.pos + (0,), e.inner[1:])
                return LeftEdge(e.pos + (0,), subj.binder, e.inner)
            return None
        if isinstance(node, AppNode):
            k = e.inner[0]
            for child in [1] + sorted(node.arg_tracks):
                if k in self.contexts.context_at(e.pos + (child,)).get(e.var).tracks():
                    return LeftEdge(e.pos + (child,), e.var, e.inner)
            raise AssertionError("quantitativity: the entry comes from some premise")
        if isinstance(node, AbsNode):
            return LeftEdge(e.pos + (0,), e.var, e.inner)
        return None

    def highest_ascendant(self, e: Edge) -> Edge:
        while True:
            up = self.asc(e)
            if up is None:
                return e
            e = up

    def polarity(self, e: Edge) -> str:
        if isinstance(e, ArgEdge):
            return POS
        top = self.highest_ascendant(e)
        return POS if isinstance(top, RightEdge) else NEG

    def _build_threads(self) -> None:
        uf = DictUnionFind()
        for e in self.edges:
            up = self.asc(e)
            if up is not None:
                uf.union(e, up)
        for a in self.checked.axiom_positions():
            node = self.checked.node(a)
            subj = subterm_at(self.checked.term, a)
            assert isinstance(node, AxNode) and isinstance(subj, Var)
            sup = node.stype.support
            for c in sup:
                if c and c[-1] >= 2:
                    uf.union(LeftEdge(a, subj.name, (node.track,) + c), RightEdge(a, c))
        classes: dict[Edge, list[Edge]] = {}
        for e in self.edges:
            classes.setdefault(uf.find(e), []).append(e)
        threads = []
        for members in classes.values():
            members.sort(key=edge_key)
            referent = self._referent(members)
            kind = (
                "argument"
                if isinstance(referent, ArgEdge)
                else "inner" if isinstance(referent, RightEdge) else "axiom"
            )
            threads.append((members, referent, kind))
        threads.sort(key=lambda item: edge_key(item[0][0]))
        self.threads: list[Thread] = []
        self.thread_of: dict[Edge, int] = {}
        for i, (members, referent, kind) in enumerate(threads):
            labels = {edge_label(e) for e in members}
            if len(labels) != 1:
                raise ValueError("edges of one thread share their track")
            self.threads.append(Thread(i, tuple(members), referent, labels.pop(), kind))
            for e in members:
                self.thread_of[e] = i
        self.parent_keys = [
            frozenset(parent_key(e) for e in thread.edges) for thread in self.threads
        ]

    def _referent(self, members: list[Edge]) -> Edge:
        if len(members) == 1 and isinstance(members[0], ArgEdge):
            return members[0]
        tops = sorted({self.highest_ascendant(e) for e in members}, key=edge_key)
        for top in tops:
            if isinstance(top, RightEdge) and isinstance(self.checked.node(top.pos), AxNode):
                return top
        for top in tops:
            if isinstance(top, LeftEdge) and len(top.inner) == 1:
                return top
        raise AssertionError("every thread has an inner, axiom or argument referent")

    def consumption(self) -> list[ConsumptionArc]:
        arcs = []
        for a in self.checked.app_positions():
            phi = self.op.interface[a]
            sup = self.checked.left_seq(a).support
            for p in sorted(c for c in sup if c and c[-1] >= 2):
                e_left = RightEdge(a + (1,), p)
                image = phi.mapping[p]
                e_right: Edge
                if len(p) == 1:
                    e_right = ArgEdge(a + (image[0],))
                else:
                    e_right = RightEdge(a + (image[0],), image[1:])
                arcs.append(
                    ConsumptionArc(
                        self.thread_of[e_left],
                        self.thread_of[e_right],
                        a,
                        self.polarity(e_left),
                        self.polarity(e_right),
                    )
                )
        return arcs

    def brothers(self, t1: int, t2: int) -> bool:
        if t1 == t2:
            return False
        if self.threads[t1].kind == "axiom" and self.threads[t2].kind == "axiom":
            return True
        return bool(self.parent_keys[t1] & self.parent_keys[t2])

    def has_brothers(self, tids) -> bool:
        """The all-pairs brother check inside one class."""
        return any(self.brothers(t1, t2) for t1, t2 in itertools.combinations(tids, 2))

    def closure(self) -> tuple[tuple[int, ...], ...]:
        """The consumption classes, ordered by their least edge."""
        uf = DictUnionFind()
        for thread in self.threads:
            uf.find(thread.id)
        for arc in self.consumption():
            uf.union(arc.left, arc.right)
        grouped: dict[int, list[int]] = {}
        for thread in self.threads:
            grouped.setdefault(uf.find(thread.id), []).append(thread.id)

        def least_edge(tids: list[int]):
            return min(edge_key(self.threads[t].edges[0]) for t in tids)

        ordered = sorted((sorted(tids) for tids in grouped.values()), key=least_edge)
        return tuple(tuple(tids) for tids in ordered)

    def track_values(self, classes) -> dict[int, int]:
        for tids in classes:
            if self.has_brothers(tids):
                raise ValueError("brother threads share a class")
        return {i: i + 2 for i in range(len(classes))}


def build_relabelling(
    analysis: ThreadAnalysis, classes: ThreadClasses, values: dict[int, Track]
) -> DerivationRelabelling:
    checked = analysis.checked

    def value_of(edge: Edge) -> Track:
        return values[classes.class_of[analysis.thread_of(edge)]]

    arg: dict[Position, Track] = {}
    for a in checked.app_positions():
        node = checked.node(a)
        assert isinstance(node, AppNode)
        for k in node.arg_tracks:
            arg[a + (k,)] = value_of(ArgEdge(a + (k,)))
    axiom_types: dict[Position, dict[Position, Track]] = {}
    axiom_tracks: dict[Position, Track] = {}
    for a in checked.axiom_positions():
        node = checked.node(a)
        assert isinstance(node, AxNode)
        subj = checked.subject_at(a)
        assert isinstance(subj, Var)
        axiom_types[a] = {c: value_of(RightEdge(a, c)) for c in node.stype.mutable_positions}
        axiom_tracks[a] = value_of(LeftEdge(a, subj.name, (node.track,)))
    return DerivationRelabelling(arg, axiom_types, axiom_tracks)


def residual_thread(
    analysis: ThreadAnalysis,
    maps,
    types: JudgmentIsos,
    new_analysis: ThreadAnalysis,
    tid: int,
) -> Optional[int]:
    """The thread of the reduct containing the residual of a referent edge."""
    ref = analysis.thread(tid).referent
    b = maps.redex
    x_axioms = maps.x_axioms()
    if isinstance(ref, ArgEdge):
        if collapse_position(ref.pos[:-1]) == b:
            return None
        return new_analysis.thread_of(ArgEdge(maps.res[ref.pos]))
    if isinstance(ref, LeftEdge):
        if ref.pos in x_axioms:
            return None
        return new_analysis.thread_of(LeftEdge(maps.res[ref.pos], ref.var, ref.inner))
    if ref.pos in x_axioms:
        new_pos = maps.qres[ref.pos]
        new_inner = types.iso(ref.pos).mapping[ref.inner]
        return new_analysis.thread_of(RightEdge(new_pos, new_inner))
    return new_analysis.thread_of(RightEdge(maps.res[ref.pos], ref.inner))
