"""The per-node-context checker, kept as the reference oracle.

Before quantitativity was checked per binder, `check_derivation` built the
full context of every node: `context` at each axiom, `Context.without` at
each abstraction and the disjoint union `context_union` at each
application, whose `TrackConflictError` it turned into `TrackConflict`
with `_conflict_variable`.  The checker, its `CheckedDerivation` and the
helpers are copied here verbatim, with `_walk_nodes` and, from `stypes`,
`seq_union` and `TrackConflictError`; `Context.without` becomes the
function `without`.  Only the imports differ, and the old
`RPath` of (kind, index) steps is defined here: the judgments
are built from the library's `Context` and `Judgment`, so they compare
equal to the ones the library builds lazily.
`test_checker_differential.py` compares `derivations.check_derivation`
against this one.

`lazy_judgments` and `binder_quantitativity_holds` moved here from the
library once nothing there read a context: they build every node's
judgment from a library `CheckedDerivation` and check quantitativity
against its per-binder index, so that index still faces this module's
independent context builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from seqtypes import derivations as lib
from seqtypes.derivations import (
    FLAVOR_S,
    AbsNode,
    AppMismatch,
    AppNode,
    AxNode,
    Context,
    Derivation,
    Judgment,
    MalformedShape,
    Node,
    NotAnApplication,
    RAbsD,
    RAppD,
    RAxD,
    RDerivation,
    RNode,
    TrackConflict,
)
from seqtypes.positions import EPS, Position, Track, collapse_position, format_position
from seqtypes.stypes import SArrow, SeqType, SType, equiv, seq
from seqtypes.terms import Abs, App, Term, Var

RPath = tuple[tuple[int, int], ...]  # (0,0) abs child, (1,0) app left, (2,j) argument j


class TrackConflictError(ValueError):
    """Disjoint union of sequence types failed; carries the clashing tracks."""

    def __init__(self, tracks: frozenset[Track]) -> None:
        super().__init__(f"track conflict on {sorted(tracks)}")
        self.tracks = tracks


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


def without(ctx: Context, x: str) -> Context:
    return Context(tuple((n, f) for n, f in ctx.entries if n != x))


def context(entries: dict[str, SeqType]) -> Context:
    return Context(tuple(sorted((x, f) for x, f in entries.items() if not f.is_empty())))


def context_union(parts: Iterable[Context]) -> Context:
    merged: dict[str, list[SeqType]] = {}
    for part in parts:
        for x, f in part.entries:
            merged.setdefault(x, []).append(f)
    out: dict[str, SeqType] = {}
    for x, fs in merged.items():
        out[x] = seq_union(*fs) if len(fs) > 1 else fs[0]
    return context(out)


@dataclass(frozen=True)
class CheckedDerivation:
    """A derivation together with its reconstructed judgments and, for each
    axiom, the abstraction node binding its variable (None when free)."""

    derivation: Derivation
    judgments: dict[Position, Judgment]
    _children: dict[Position, frozenset[Track]]
    binders: dict[Position, Optional[Position]]
    _right_seqs: dict[Position, SeqType]

    @property
    def term(self) -> Term:
        return self.derivation.term

    @property
    def flavor(self) -> str:
        return self.derivation.flavor

    @property
    def nodes(self) -> dict[Position, Node]:
        return self.derivation.nodes

    def support(self) -> frozenset[Position]:
        return frozenset(self.derivation.nodes)

    def children(self, a: Position) -> list[Track]:
        return sorted(self._children[a])

    def node(self, a: Position) -> Node:
        return self.derivation.nodes[a]

    def type_at(self, a: Position) -> SType:
        return self.judgments[a].stype

    def context_at(self, a: Position) -> Context:
        return self.judgments[a].context

    def conclusion(self) -> Judgment:
        return self.judgments[EPS]

    def app_positions(self) -> list[Position]:
        return sorted(a for a, n in self.nodes.items() if isinstance(n, AppNode))

    def axiom_positions(self) -> list[Position]:
        return sorted(a for a, n in self.nodes.items() if isinstance(n, AxNode))

    def axiom_track(self, a: Position) -> Track:
        node = self.nodes[a]
        if not isinstance(node, AxNode):
            raise KeyError(f"{format_position(a)} is not an axiom")
        return node.track

    def left_seq(self, a: Position) -> SeqType:
        node = self.nodes.get(a)
        if not isinstance(node, AppNode):
            raise NotAnApplication(format_position(a))
        arrow = self.judgments[a + (1,)].stype
        assert isinstance(arrow, SArrow)
        return arrow.source

    def right_seq(self, a: Position) -> SeqType:
        """The argument premises' types, as the checker built them for the
        application rule: one object per node, so its cached facts serve
        every reader."""
        right = self._right_seqs.get(a)
        if right is None:
            raise NotAnApplication(format_position(a))
        return right

    @cached_property
    def apps_over(self) -> dict[Position, list[Position]]:
        """The application nodes over each term position, in increasing
        order; computed once per checked derivation and shared by every
        reader, who must not mutate it."""
        out: dict[Position, list[Position]] = {}
        for a in self.app_positions():
            out.setdefault(collapse_position(a), []).append(a)
        return out

    def bound_by(self, a: Position) -> list[Position]:
        """The axioms whose variable the abstraction at a binds."""
        return [p for p, binder in self.binders.items() if binder == a]

    def axioms_above(self, a: Position, x: str) -> set[Position]:
        """Axioms above `a` typing occurrences of x not rebound in between."""
        n, var = len(a), Var(x)
        return {
            p
            for p, binder in self.binders.items()
            if p[:n] == a
            and self.judgments[p].subject == var
            and (binder is None or len(binder) < n)
        }

    @cached_property
    def collapse(self) -> tuple["RDerivation", dict[Position, "RPath"]]:
        """The multiset collapse, with where each rigid position lands in the
        R-tree; computed once per checked derivation and shared by every
        reader, who must not mutate it.

        Argument premises with equal collapses are ordered by their original
        track, which fixes a deterministic correspondence.
        """
        rnodes: dict[Position, RNode] = {}
        rank: dict[Position, int] = {}  # argument premise -> its index in the R-node
        for a in sorted(self.nodes, reverse=True):
            node = self.nodes[a]
            if isinstance(node, AxNode):
                rnodes[a] = RAxD(node.stype.collapse)
            elif isinstance(node, AbsNode):
                rnodes[a] = RAbsD(rnodes[a + (0,)])
            else:
                order = sorted(node.arg_tracks, key=lambda k: (rnodes[a + (k,)].key, k))
                rank.update((a + (k,), j) for j, k in enumerate(order))
                rnodes[a] = RAppD(rnodes[a + (1,)], tuple(rnodes[a + (k,)] for k in order))
        paths: dict[Position, RPath] = {EPS: ()}
        for a in sorted(self.nodes)[1:]:
            step = (2, rank[a]) if a[-1] >= 2 else ((0, 0), (1, 0))[a[-1]]
            paths[a] = paths[a[:-1]] + (step,)
        return RDerivation(self.term, rnodes[EPS]), paths


def _walk_nodes(
    term: Term, children: Mapping[Position, Iterable[Position]]
) -> list[tuple[Position, Optional[Term], Optional[Position]]]:
    """Every node laid on the term, in preorder, which is increasing position
    order: its position, its subterm (None off the term's support) and, at a
    variable, the node of the abstraction binding it (None when free).

    Every argument premise sits on the term's argument.  The walk runs on an
    explicit stack, so depth is unbounded.
    """
    out: list[tuple[Position, Optional[Term], Optional[Position]]] = []
    stack: list[tuple[Position, Optional[Term], dict[str, Position]]] = [(EPS, term, {})]
    while stack:
        a, subj, scope = stack.pop()
        out.append((a, subj, scope.get(subj.name) if isinstance(subj, Var) else None))
        if isinstance(subj, Abs):
            scope = {**scope, subj.binder: a}
        for b in sorted(children[a], reverse=True):
            k = b[-1]
            if isinstance(subj, Abs):
                sub = subj.body if k == 0 else None
            elif isinstance(subj, App):
                sub = subj.left if k == 1 else subj.right if k >= 2 else None
            else:
                sub = None
            stack.append((b, sub, scope))
    return out


def check_derivation(deriv: Derivation) -> CheckedDerivation:
    term, nodes, flavor = deriv.term, deriv.nodes, deriv.flavor
    if EPS not in nodes:
        raise MalformedShape(EPS, "missing root node")
    # child positions per node, as the derivation's keys: the judgments share them
    children: dict[Position, list[Position]] = {a: [] for a in nodes}
    for a in nodes:
        if a:
            parent = a[:-1]
            if parent not in nodes:
                raise MalformedShape(a, "parent position missing")
            children[parent].append(a)
    judgments: dict[Position, Judgment] = {}
    binders: dict[Position, Optional[Position]] = {}
    right_seqs: dict[Position, SeqType] = {}
    for a, subj, binder in reversed(_walk_nodes(term, children)):
        node = nodes[a]
        if subj is None:
            raise MalformedShape(a, "position outside the subject's support")
        kids = {b[-1] for b in children[a]}
        if isinstance(node, AxNode):
            if kids:
                raise MalformedShape(a, "axiom with children")
            if not isinstance(subj, Var):
                raise MalformedShape(a, "axiom not at a variable")
            if node.track < 2:
                raise MalformedShape(a, "axiom track must be >= 2")
            ctx = context({subj.name: seq({node.track: node.stype})})
            judgments[a] = Judgment(ctx, subj, node.stype)
            binders[a] = binder
        elif isinstance(node, AbsNode):
            if not isinstance(subj, Abs):
                raise MalformedShape(a, "abstraction node not at an abstraction")
            if kids != {0}:
                raise MalformedShape(a, "abstraction needs exactly the child 0")
            premise = judgments[a + (0,)]
            source = premise.context.get(subj.binder)
            judgments[a] = Judgment(
                without(premise.context, subj.binder), subj, SArrow(source, premise.stype)
            )
        else:
            if not isinstance(subj, App):
                raise MalformedShape(a, "application node not at an application")
            if any(k < 2 for k in node.arg_tracks):
                raise MalformedShape(a, "argument tracks must be >= 2")
            if kids != {1} | set(node.arg_tracks):
                raise MalformedShape(a, "application children do not match its tracks")
            left = judgments[a + (1,)]
            if not isinstance(left.stype, SArrow):
                raise MalformedShape(a, "left premise does not conclude with an arrow")
            lseq = left.stype.source
            rseq = right_seqs[a] = seq({k: judgments[a + (k,)].stype for k in node.arg_tracks})
            if flavor == FLAVOR_S:
                if lseq != rseq:
                    raise AppMismatch(a, lseq, rseq)
            elif not equiv(lseq, rseq):
                raise AppMismatch(a, lseq, rseq)
            try:
                merged = context_union(
                    [left.context] + [judgments[a + (k,)].context for k in sorted(node.arg_tracks)]
                )
            except TrackConflictError as exc:
                variable = _conflict_variable(judgments, a, node, exc.tracks)
                raise TrackConflict(a, variable, exc.tracks) from None
            judgments[a] = Judgment(merged, subj, left.stype.target)
    kids = {a: frozenset(b[-1] for b in bs) for a, bs in children.items()}
    return CheckedDerivation(deriv, judgments, kids, binders, right_seqs)


def _conflict_variable(judgments, a, node, tracks) -> str:
    seen: dict[tuple[str, Track], int] = {}
    for k in [1] + sorted(node.arg_tracks):
        for x, f in judgments[a + (k,)].context.entries:
            for track in f.tracks():
                if (x, track) in seen and track in tracks:
                    return x
                seen[(x, track)] = 1
    return "?"


def quantitativity_holds(checked: CheckedDerivation) -> bool:
    """C(a)(x) is exactly the union of the axioms above; automatic when finite."""
    for a in checked.support():
        ctx = checked.context_at(a)
        names = {x for x, _ in ctx.entries}
        subj = checked.judgments[a].subject
        if isinstance(subj, Var):
            names.add(subj.name)
        for x in names:
            expected: dict[Track, SType] = {}
            for a0 in checked.axioms_above(a, x):
                node = checked.node(a0)
                assert isinstance(node, AxNode)
                if node.track in expected:
                    return False
                expected[node.track] = node.stype
            if seq(expected) != ctx.get(x):
                return False
    return True


# -- moved from the library: judgments over its per-binder index ----------------


def lazy_judgments(checked: lib.CheckedDerivation) -> dict[Position, Judgment]:
    """Every node's judgment, built in one reverse-preorder pass.  A context
    is shared up an abstraction that binds nothing in it."""
    out: dict[Position, Judgment] = {}
    for a in sorted(checked.nodes, reverse=True):
        node, subj = checked.nodes[a], checked.subject_at(a)
        if isinstance(node, AxNode):
            ctx = Context(((subj.name, seq(((node.track, node.stype),))),))
        elif isinstance(node, AbsNode):
            ctx = out[a + (0,)].context
            if ctx.get(subj.binder):
                ctx = Context(tuple(e for e in ctx.entries if e[0] != subj.binder))
        else:
            held: dict[str, list[SeqType]] = {}
            for k in checked.children(a):
                for x, f in out[a + (k,)].context.entries:
                    held.setdefault(x, []).append(f)
            ctx = context(
                {
                    x: fs[0] if len(fs) < 2 else seq(e for f in fs for e in f.entries)
                    for x, fs in held.items()
                }
            )
        out[a] = Judgment(ctx, subj, checked.type_at(a))
    return out


def binder_quantitativity_holds(
    checked: lib.CheckedDerivation, judgments: Optional[Mapping[Position, Judgment]] = None
) -> bool:
    """C(a)(x) is exactly the union of the axioms above: every context entry
    is an axiom above its node that its binder binds, with its type, and
    each axiom is in the contexts from itself down to its binder's body.
    The judgments are `lazy_judgments(checked)` unless given."""
    if judgments is None:
        judgments = lazy_judgments(checked)
    entries = 0
    for a, _, scope in lib._walk_nodes(checked.term, checked._children):
        for x, f in judgments[a].context.entries:
            axioms = checked.bound_by(scope.get(x, x))
            for t, stype in f.items():
                p = axioms.get(t)
                if p is None or p[: len(a)] != a or checked.type_at(p) != stype:
                    return False
            entries += len(f)
    paths = (len(p) + 1 if b is None else len(p) - len(b) for p, b in checked.binders.items())
    return entries == sum(paths)
