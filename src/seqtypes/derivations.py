"""Rigid derivations for systems S and S_h, and their multiset collapses.

A derivation is stored as shape data only: per-position node kinds, the
axiom tracks and types at the leaves, and the argument tracks at the
applications.  `check_derivation` reconstructs every node's type and
subject bottom-up; this keeps the stored data free of redundancy.
The checker checks quantitativity per binder (an abstraction, or a free
variable's name): the axioms it binds carry distinct tracks, indexed for
`CheckedDerivation.bound_by`.  Contexts are derived data, never stored: by
quantitativity, C(a)(x) is the axioms above a that x's binder binds.  Only
`conclusion()` builds one, at the root, from the free variables' axioms.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote  # the string encoder of `json.dumps`
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, TypeVar, Union

from .positions import (
    EPS,
    Position,
    Track,
    ZeroOneIso,
    collapse_position,
    format_position,
    parse_position,
)
from .stypes import (
    EMPTY_SEQ,
    Keyed,
    RArrow,
    RType,
    SArrow,
    SAtom,
    SeqType,
    SType,
    equiv,
    identity_iso,
    parse_type,
    print_type,
    rarrow,
    rmultiset,
    seq,
)
from .terms import (
    Abs,
    App,
    Term,
    Var,
    child,
    parse_term,
    print_term,
    alpha_eq,
    alpha_key,
    is_normal,
)

FLAVOR_S = "S"
FLAVOR_SH = "Sh"

T = TypeVar("T")


@dataclass(frozen=True)
class AxNode:
    track: Track
    stype: SType


@dataclass(frozen=True)
class AbsNode:
    pass


@dataclass(frozen=True)
class AppNode:
    arg_tracks: frozenset[Track]


Node = Union[AxNode, AbsNode, AppNode]


@dataclass(frozen=True)
class Derivation:
    term: Term
    flavor: str
    nodes: dict[Position, Node]

    def __post_init__(self) -> None:
        if self.flavor not in (FLAVOR_S, FLAVOR_SH):
            raise ValueError(f"unknown flavor {self.flavor!r}")


@dataclass(frozen=True)
class Context:
    entries: tuple[tuple[str, SeqType], ...]

    def __post_init__(self) -> None:
        names = [x for x, _ in self.entries]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("context entries must be sorted by variable")
        if any(f.is_empty() for _, f in self.entries):
            raise ValueError("empty entries are left implicit")

    def get(self, x: str) -> SeqType:
        for name, f in self.entries:
            if name == x:
                return f
        return EMPTY_SEQ


@dataclass(frozen=True)
class Judgment:
    context: Context
    subject: Term
    stype: SType


def format_judgment(j: Judgment) -> str:
    ctx = ", ".join(f"{x}:{print_type(f)}" for x, f in j.context.entries)
    sep = " " if ctx else ""
    return f"{ctx}{sep}|- {print_term(j.subject)} : {print_type(j.stype)}"


class DerivationCheckError(ValueError):
    def __init__(self, position: Position, message: str) -> None:
        super().__init__(f"at {format_position(position)}: {message}")
        self.position = position


class MalformedShape(DerivationCheckError):
    pass


class TrackConflict(DerivationCheckError):
    def __init__(self, position: Position, variable: str, tracks: frozenset[Track]) -> None:
        super().__init__(position, f"track conflict on {sorted(tracks)} for {variable!r}")
        self.variable = variable
        self.tracks = tracks


class AppMismatch(DerivationCheckError):
    def __init__(self, position: Position, left: SeqType, right: SeqType) -> None:
        super().__init__(
            position, f"application sides differ: {print_type(left)} vs {print_type(right)}"
        )
        self.left = left
        self.right = right


class QuantitativityError(DerivationCheckError):
    """A binder's sequence type whose tracks are not those of the axioms it
    binds.

    `check_derivation` never builds one; the position, the variable and the
    tracks found on one side only are the witness."""

    def __init__(self, position: Position, variable: str, tracks: Iterable[Track]) -> None:
        self.variable = variable
        self.tracks = frozenset(tracks)
        super().__init__(
            position, f"quantitativity fails for {variable!r} on tracks {sorted(self.tracks)}"
        )


class NotAnApplication(ValueError):
    pass


@dataclass(frozen=True)
class CheckedDerivation:
    """A derivation with what checking it found: every node's type and
    subject, in reverse preorder, the abstraction binding each axiom's
    variable (None when free) and, per binder (an abstraction's position or
    a free variable's name), its axioms by track."""

    derivation: Derivation
    _types: dict[Position, SType]
    _subjects: dict[Position, Term]
    _children: dict[Position, set[Track]]
    binders: dict[Position, Optional[Position]]
    _bound: dict[Union[Position, str], dict[Track, Position]]
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
        return self._types[a]

    def subject_at(self, a: Position) -> Term:
        return self._subjects[a]

    def conclusion(self) -> Judgment:
        """The root judgment: its context holds the free variables' axioms,
        from the per-binder index."""
        free = [
            (x, seq((k, self._types[p]) for k, p in by_track.items()))
            for x, by_track in self._bound.items()
            if isinstance(x, str)
        ]
        return Judgment(Context(tuple(sorted(free))), self._subjects[EPS], self._types[EPS])

    @cached_property
    def preorder(self) -> tuple[Position, ...]:
        """Every node in the order of the checker's walk: preorder, which is
        increasing position order."""
        return tuple(reversed(self._types))

    def app_positions(self) -> tuple[Position, ...]:
        return self._by_kind[AppNode]

    def axiom_positions(self) -> tuple[Position, ...]:
        return self._by_kind[AxNode]

    @cached_property
    def _by_kind(self) -> dict[type, tuple[Position, ...]]:
        """The nodes of each kind, in preorder, kept once like `preorder`."""
        by_kind: dict[type, list[Position]] = {AxNode: [], AbsNode: [], AppNode: []}
        for a in self.preorder:
            by_kind[type(self.nodes[a])].append(a)
        return {kind: tuple(positions) for kind, positions in by_kind.items()}

    def left_seq(self, a: Position) -> SeqType:
        node = self.nodes.get(a)
        if not isinstance(node, AppNode):
            raise NotAnApplication(format_position(a))
        arrow = self._types[a + (1,)]
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

    def bound_by(self, a: Union[Position, str]) -> Mapping[Track, Position]:
        """The axioms the abstraction at a (or a free variable's name) binds,
        by track: the checker's own index, which readers must not mutate."""
        return self._bound.get(a, {})

    @cached_property
    def collapse(self) -> tuple["RDerivation", dict[Position, Position]]:
        """The multiset collapse, with where each rigid position lands in the
        R-tree: its position in the hybrid representative, where the argument
        premise of rank j becomes the letter 2 + j.  Computed once per checked
        derivation and shared by every reader, who must not mutate it.

        Argument premises with equal collapses are ordered by their original
        track, which fixes a deterministic correspondence.
        """
        rnodes: dict[Position, RNode] = {}
        letter: dict[Position, int] = {}  # argument premise -> 2 + its rank in the R-node
        for a in reversed(self.preorder):
            node = self.nodes[a]
            if isinstance(node, AxNode):
                rnodes[a] = RAxD(node.stype.collapse)
            elif isinstance(node, AbsNode):
                rnodes[a] = RAbsD(rnodes[a + (0,)])
            else:
                order = sorted(node.arg_tracks, key=lambda k: (rnodes[a + (k,)].key, k))
                letter.update((a + (k,), j) for j, k in enumerate(order, start=2))
                rnodes[a] = RAppD(rnodes[a + (1,)], tuple(rnodes[a + (k,)] for k in order))
        positions: dict[Position, Position] = {EPS: EPS}
        for a in self.preorder[1:]:
            positions[a] = positions[a[:-1]] + (letter.get(a, a[-1]),)
        return RDerivation(self.term, rnodes[EPS]), positions


def _walk_nodes(
    term: Term, children: Mapping[Position, Iterable[Track]]
) -> list[tuple[Position, Optional[Term], dict[str, Position]]]:
    """Every node laid on the term, in preorder, which is increasing position
    order: its position, its subterm (None off the term's support) and its
    scope, the node of the abstraction binding each variable bound there.

    Every argument premise sits on the term's argument.  The walk runs on an
    explicit stack, so depth is unbounded.
    """
    out: list[tuple[Position, Optional[Term], dict[str, Position]]] = []
    stack: list[tuple[Position, Optional[Term], dict[str, Position]]] = [(EPS, term, {})]
    while stack:
        a, subj, scope = stack.pop()
        out.append((a, subj, scope))
        if isinstance(subj, Abs):
            scope = {**scope, subj.binder: a}
        for k in sorted(children[a], reverse=True):
            stack.append((a + (k,), None if subj is None else child(subj, k), scope))
    return out


def check_derivation(deriv: Derivation) -> CheckedDerivation:
    """Apply the rules at every node, premises first (reverse preorder); the
    first fault met raises.  Two axioms of one binder on one track meet at
    their longest common prefix, an application, and raise `TrackConflict`
    there after its own checks, where their contexts' union would fail."""
    return _check_nodes(deriv)


def _check_nodes(
    deriv: Derivation,
    source: Optional[CheckedDerivation] = None,
    kept: Mapping[Position, Position] = {},
) -> CheckedDerivation:
    """`check_derivation`'s walk; an inner node at a position in `kept`
    skips its rule and takes the type (and right sequence) of the `source`
    node named there, which must have the same premises and have passed a
    rule at least as strict."""
    term, nodes, flavor = deriv.term, deriv.nodes, deriv.flavor
    if EPS not in nodes:
        raise MalformedShape(EPS, "missing root node")
    children: dict[Position, set[Track]] = {a: set() for a in nodes}
    for a in nodes:
        if a:
            parent = a[:-1]
            if parent not in nodes:
                raise MalformedShape(a, "parent position missing")
            children[parent].add(a[-1])
    types: dict[Position, SType] = {}
    subjects: dict[Position, Term] = {}
    binders: dict[Position, Optional[Position]] = {}
    bound: dict[Union[Position, str], dict[Track, Position]] = {}
    right_seqs: dict[Position, SeqType] = {}
    meets: set[Position] = set()  # where two axioms of one binder share a track
    for a, subj, scope in reversed(_walk_nodes(term, children)):
        node = nodes[a]
        if subj is None:
            raise MalformedShape(a, "position outside the subject's support")
        kids = children[a]
        if isinstance(node, AxNode):
            if kids:
                raise MalformedShape(a, "axiom with children")
            if not isinstance(subj, Var):
                raise MalformedShape(a, "axiom not at a variable")
            if node.track < 2:
                raise MalformedShape(a, "axiom track must be >= 2")
            binder = binders[a] = scope.get(subj.name)
            by_track = bound.setdefault(subj.name if binder is None else binder, {})
            other = by_track.setdefault(node.track, a)
            if other is not a:  # the latest other axiom meets this one lowest
                meets.add(a[: next(i for i, k in enumerate(a) if k != other[i])])
                by_track[node.track] = a
            types[a] = node.stype
        elif isinstance(node, AbsNode):
            if not isinstance(subj, Abs):
                raise MalformedShape(a, "abstraction node not at an abstraction")
            if kids != {0}:
                raise MalformedShape(a, "abstraction needs exactly the child 0")
            if a in kept:
                types[a] = source._types[kept[a]]
            else:
                lseq = seq((k, types[p]) for k, p in bound.get(a, {}).items())
                types[a] = SArrow(lseq, types[a + (0,)])
        else:
            if not isinstance(subj, App):
                raise MalformedShape(a, "application node not at an application")
            if any(k < 2 for k in node.arg_tracks):
                raise MalformedShape(a, "argument tracks must be >= 2")
            if kids != {1} | node.arg_tracks:
                raise MalformedShape(a, "application children do not match its tracks")
            if a in kept:
                types[a], right_seqs[a] = source._types[kept[a]], source._right_seqs[kept[a]]
            else:
                left = types[a + (1,)]
                if not isinstance(left, SArrow):
                    raise MalformedShape(a, "left premise does not conclude with an arrow")
                lseq = left.source
                rseq = right_seqs[a] = seq((k, types[a + (k,)]) for k in node.arg_tracks)
                mismatch = lseq != rseq if flavor == FLAVOR_S else not equiv(lseq, rseq)
                if mismatch:
                    raise AppMismatch(a, lseq, rseq)
                types[a] = left.target
            if a in meets:
                raise _track_conflict(a, nodes, subjects, binders)
        subjects[a] = subj
    return CheckedDerivation(deriv, types, subjects, children, binders, bound, right_seqs)


def _track_conflict(c: Position, nodes, subjects, binders) -> TrackConflict:
    """The conflict the union of the premises' contexts at the application c
    meets, premise by premise (1, then the argument tracks) and variable by
    variable: the first variable held twice on a track gives all the tracks it
    is held twice on, and the first variable met again on one of them is named."""
    n = len(c)
    met = sorted(
        (p[n], subjects[p].name, nodes[p].track)
        for p, binder in binders.items()
        if p[:n] == c and (binder is None or len(binder) < n)
    )
    firsts: dict[tuple[str, Track], int] = {}
    again = [(x, t) for i, (_, x, t) in enumerate(met) if firsts.setdefault((x, t), i) < i]
    clashing = {x for x, _ in again}
    first = next(x for _, x, _ in met if x in clashing)
    tracks = frozenset(t for x, t in again if x == first)
    return TrackConflict(c, next(x for x, t in again if t in tracks), tracks)


class JudgmentIsos:
    """The type isomorphism psi(a): T(a) -> T'(a') induced at every judgment
    of a checked derivation by new tracks and type isomorphisms for its
    axioms and new tracks for its argument premises: the isomorphisms a
    derivation isomorphism induces, or the residual types of a reduction step.

    One reverse-preorder pass applies the three rules, building one node at
    most per judgment and sharing the premises' isomorphisms.  An axiom's psi
    is given; an axiom not given keeps its track, with the identity.  An
    abstraction's psi maps its source through the axioms its binder binds,
    each from its old track onto its new one, and its target through its
    body's.  An application's psi is its left premise's restricted under
    track 1.  Argument premises not given keep their track.
    """

    def __init__(
        self,
        checked: CheckedDerivation,
        axioms: Mapping[Position, tuple[Track, ZeroOneIso]],
        args: Mapping[Position, Track] = {},
    ) -> None:
        self.checked = checked
        self._args = args
        self._psi: dict[Position, ZeroOneIso] = {}
        for a in reversed(checked.preorder):
            node = checked.nodes[a]
            if isinstance(node, AxNode):
                iso = axioms[a][1] if a in axioms else identity_iso(node.stype)
            elif isinstance(node, AbsNode):
                kids = {1: (1, self._psi[a + (0,)])}
                for k, p in checked.bound_by(a).items():
                    kids[k] = (axioms[p][0] if p in axioms else k, self._psi[p])
                iso = ZeroOneIso.node(kids)
            else:
                iso = self._psi[a + (1,)].restrict(1)
            self._psi[a] = iso

    def iso(self, a: Position) -> ZeroOneIso:
        """psi(a): T(a) -> T'(a')."""
        return self._psi[a]

    def left(self, a: Position) -> ZeroOneIso:
        """L(a) -> L'(a'): psi(a.1) on the source of its arrow."""
        kids = self._psi[a + (1,)].kids
        return ZeroOneIso.node({k: kid for k, kid in kids.items() if k >= 2}, tree=False)

    def right(self, a: Position) -> ZeroOneIso:
        """R(a) -> R'(a'): the argument premises' psi, each under its new track."""
        node = self.checked.nodes[a]
        assert isinstance(node, AppNode)
        kids = {k: (self._args.get(a + (k,), k), self._psi[a + (k,)]) for k in node.arg_tracks}
        return ZeroOneIso.node(kids, tree=False)

    def conjugate(self, a: Position, phi: ZeroOneIso) -> ZeroOneIso:
        """right(a) o phi o left(a)^-1: an interface at a, carried along."""
        return phi.conjugate(self.left(a), self.right(a))

    def commutes(self, a: Position, phi: ZeroOneIso, other: Optional[ZeroOneIso] = None) -> bool:
        """Whether `conjugate(a, phi)` is other, or the identity when other is
        None, decided without building it or left(a) and right(a).

        One walk on an explicit stack reads psi(a.1)'s source letters, phi,
        the argument premises' psi under their new tracks and other in
        lockstep, once per distinct tuple of nodes.  It descends where the
        conjugate builds a node, so it raises `KeyError` exactly where
        `conjugate` does: once the verdict is False it goes on without
        other, for that error alone.
        """
        node = self.checked.nodes[a]
        assert isinstance(node, AppNode)
        right = {k: (self._args.get(a + (k,), k), self._psi[a + (k,)]) for k in node.arg_tracks}
        left = [(k, kid) for k, kid in self._psi[a + (1,)].kids.items() if k >= 2]
        ok = other is None or not other.tree and len(other.kids) == len(left)
        seen: set[tuple[int, int, int, int]] = set()
        stack: list = [(left, phi.kids, right, other)]
        while stack:
            lkids, pkids, rkids, t = stack.pop()
            for k, (k_l, l_sub) in lkids:
                k_p, p_sub = pkids[k]
                k_r, r_sub = rkids[k_p]
                t_sub = None
                if ok and t is None:
                    ok = k_l == k_r
                elif ok:
                    kid = t.kids.get(k_l)
                    ok = kid is not None and kid[0] == k_r
                    t_sub = kid[1] if ok else None
                if not l_sub.kids:  # the conjugate's node is a leaf
                    ok = ok and (t_sub is None or t_sub.tree and not t_sub.kids)
                elif p_sub is l_sub and r_sub is l_sub and l_sub.is_identity():
                    ok = ok and (t_sub is None or t_sub == l_sub)  # it is l_sub itself
                else:
                    if t_sub is not None:
                        ok = t_sub.tree and len(t_sub.kids) == len(l_sub.kids)
                        t_sub = t_sub if ok else None
                    key = (id(l_sub), id(p_sub), id(r_sub), id(t_sub))
                    if key not in seen:
                        seen.add(key)
                        stack.append((l_sub.kids.items(), p_sub.kids, r_sub.kids, t_sub))
        return ok


# -- multiset (R) derivations -----------------------------------------------


@dataclass(frozen=True, eq=False)
class RAxD(Keyed):
    rtype: RType

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (0, self.rtype.key))


@dataclass(frozen=True, eq=False)
class RAbsD(Keyed):
    child: "RNode"

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (1, self.child.key))


@dataclass(frozen=True, eq=False)
class RAppD(Keyed):
    left: "RNode"
    args: tuple["RNode", ...]

    def __post_init__(self) -> None:
        key = (2, self.left.key, tuple(c.key for c in self.args))
        object.__setattr__(self, "key", key)


RNode = Union[RAxD, RAbsD, RAppD]


def rapp(left: RNode, args: Iterable[RNode]) -> RAppD:
    return RAppD(left, tuple(sorted(args, key=attrgetter("key"))))


@dataclass(frozen=True, eq=False)
class RDerivation:
    term: Term
    root: RNode

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RDerivation):
            return NotImplemented
        return alpha_eq(self.term, other.term) and self.root == other.root

    def __hash__(self) -> int:
        return hash((alpha_key(self.term), self.root))


class RCheckError(ValueError):
    def __init__(self, position: Position, reason: str) -> None:
        super().__init__(f"at R-position {format_position(position)}: {reason}")
        self.position = position
        self.reason = reason


@dataclass(frozen=True)
class RJudgment:
    context: tuple[tuple[str, tuple[RType, ...]], ...]
    rtype: RType


def walk_R(root: RNode, term: Term) -> Iterator[tuple[Position, RNode, Term]]:
    """The (position, node, subterm) of every node of an R-tree laid on a
    term, in preorder, which is increasing position order.

    A node's position is the one it has in the hybrid representative: the
    letter 0 under an abstraction, 1 for an application's left premise and
    2 + j for its j-th argument premise.  Its subterm sits at the
    `collapse_position` of its position.  A node whose kind does not match
    its subterm is yielded without its children.  The walk runs on an
    explicit stack, so depth is unbounded.
    """
    stack: list[tuple[Position, RNode, Term]] = [(EPS, root, term)]
    while stack:
        item = stack.pop()
        yield item
        path, node, subj = item
        if isinstance(node, RAbsD) and isinstance(subj, Abs):
            stack.append((path + (0,), node.child, subj.body))
        elif isinstance(node, RAppD) and isinstance(subj, App):
            for j in range(len(node.args) + 1, 1, -1):
                stack.append((path + (j,), node.args[j - 2], subj.right))
            stack.append((path + (1,), node.left, subj.left))


def check_R_types(
    rd: RDerivation,
) -> tuple[RJudgment, dict[Position, RType], dict[Position, list[Position]]]:
    """Validate the multiset-side rules; returns the concluding judgment, the
    R-type concluded at every node, by its `walk_R` position, and the binder
    index: the axioms each abstraction binds, in position order, the
    multiset twin of `CheckedDerivation.bound_by`.

    Node kinds and argument order are checked in preorder, the typing rules
    bottom-up in reverse preorder, where every premise precedes its node.
    A context maps each variable to its axioms' positions: an application
    extends its left premise's context in place by its arguments', in letter
    order, so a list stays in position order and merging costs the size of
    the arguments' contexts.
    """
    order: list[tuple[Position, RNode, Term]] = []
    for path, node, subj in walk_R(rd.root, rd.term):
        if isinstance(node, RAxD):
            if not isinstance(subj, Var):
                raise RCheckError(path, "axiom not at a variable")
        elif isinstance(node, RAbsD):
            if not isinstance(subj, Abs):
                raise RCheckError(path, "abstraction node not at an abstraction")
        elif not isinstance(subj, App):
            raise RCheckError(path, "application node not at an application")
        elif tuple(sorted(node.args, key=attrgetter("key"))) != node.args:
            raise RCheckError(path, "argument premises not in canonical order")
        order.append((path, node, subj))
    contexts: dict[Position, dict[str, list[Position]]] = {}
    types: dict[Position, RType] = {}
    bound: dict[Position, list[Position]] = {}
    for path, node, subj in reversed(order):
        if isinstance(node, RAxD):
            contexts[path] = {subj.name: [path]}
            types[path] = node.rtype
        elif isinstance(node, RAbsD):
            ctx = contexts[path] = contexts.pop(path + (0,))
            axioms = bound[path] = ctx.pop(subj.binder, [])
            types[path] = rarrow((types[p] for p in axioms), types[path + (0,)])
        else:
            ltype = types[path + (1,)]
            if not isinstance(ltype, RArrow):
                raise RCheckError(path, "left premise does not conclude with an arrow")
            args = [path + (j,) for j in range(2, 2 + len(node.args))]
            if rmultiset(types[p] for p in args) != ltype.source:
                raise RCheckError(path, "app_mismatch")
            ctx = contexts[path] = contexts.pop(path + (1,))
            for p in args:
                for x, axioms in contexts.pop(p).items():
                    ctx.setdefault(x, []).extend(axioms)
            types[path] = ltype.target
    context = sorted((x, rmultiset(types[p] for p in ps)) for x, ps in contexts[EPS].items())
    return RJudgment(tuple(context), types[EPS]), types, bound


def check_R(rd: RDerivation) -> RJudgment:
    """Validate the multiset-side rules; returns the concluding judgment."""
    return check_R_types(rd)[0]


def collapse_derivation(checked: CheckedDerivation) -> RDerivation:
    return checked.collapse[0]



# -- derivations of normal forms --------------------------------------------


@dataclass(frozen=True)
class GenBudget:
    width: int = 2
    limit: int = 64


def _decompose_normal(t: Term) -> tuple[list[str], str, list[Term]]:
    binders = []
    u = t
    while isinstance(u, Abs):
        binders.append(u.binder)
        u = u.body
    args: list[Term] = []
    while isinstance(u, App):
        args.append(u.right)
        u = u.left
    if not isinstance(u, Var):
        raise ValueError("term is not in beta-normal form")
    return binders, u.name, list(reversed(args))


def _shapes(t: Term, width: int) -> Iterator[tuple]:
    """Width choices for every application argument, deterministically
    ordered and lazily: only the options of each argument are listed."""
    _, _, args = _decompose_normal(t)
    per_arg = []
    for arg in args:
        sub = list(_shapes(arg, width))
        widths = range(width + 1)
        per_arg.append([c for w in widths for c in itertools.combinations_with_replacement(sub, w)])
    return itertools.product(*per_arg)


def _materialize(
    t: Term,
    shape: tuple,
    prefix: Position,
    atoms: Iterator[int],
    tracks: Iterator[Track],
    nodes: dict[Position, Node],
) -> tuple[SType, dict[str, dict[Track, SType]]]:
    """Build the nodes of one subderivation; returns its type and context.
    Fresh atoms and tracks are drawn from the shared counters."""
    binders, head, args = _decompose_normal(t)
    n, m = len(binders), len(args)
    spine = prefix + (0,) * n
    for i in range(n):
        nodes[prefix + (0,) * i] = AbsNode()
    ctx: dict[str, dict[Track, SType]] = {}
    arg_seqs: list[SeqType] = []
    for j, (arg, arg_shape) in enumerate(zip(args, shape), start=1):
        app_pos = spine + (1,) * (m - j)
        entries: dict[Track, SType] = {}
        for copy_shape in arg_shape:
            track = next(tracks)
            copy_type, copy_ctx = _materialize(
                arg, copy_shape, app_pos + (track,), atoms, tracks, nodes
            )
            entries[track] = copy_type
            for x, entries_x in copy_ctx.items():
                ctx.setdefault(x, {}).update(entries_x)
        nodes[app_pos] = AppNode(frozenset(entries))
        arg_seqs.append(seq(entries))
    head_type: SType = SAtom(f"o{next(atoms)}")
    for entries in reversed(arg_seqs):
        head_type = SArrow(entries, head_type)
    head_track = next(tracks)
    nodes[spine + (1,) * m] = AxNode(head_track, head_type)
    ctx.setdefault(head, {})[head_track] = head_type
    result: SType = head_type
    for _ in range(m):
        assert isinstance(result, SArrow)
        result = result.target
    for binder in reversed(binders):
        source = seq(ctx.pop(binder, {}))
        result = SArrow(source, result)
    return result, ctx


def generate_normal_form_derivations(t: Term, budget: GenBudget = GenBudget()) -> list[Derivation]:
    """All flavor-S derivations of a beta-normal term, up to the budget.

    Axioms receive fresh atoms and globally distinct axiom tracks, so the
    contexts never conflict; every head variable gets an arrow of exact
    arity.  Enumeration order is deterministic (widths ascending).
    """
    if not is_normal(t):
        raise ValueError("the subject must be beta-normal")
    out: list[Derivation] = []
    for shape in _shapes(t, budget.width):
        if len(out) >= budget.limit:
            break
        nodes: dict[Position, Node] = {}
        _materialize(t, shape, EPS, itertools.count(1), itertools.count(2), nodes)
        out.append(Derivation(t, FLAVOR_S, nodes))
    return out


# -- file format -------------------------------------------------------------


def json_integer(value: Any) -> int:
    """A JSON integer; a float, a bool or a string is a ValueError, where
    `int` would truncate or convert it."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


class LoadError(ValueError):
    """A derivation, interface or choice file that cannot be read: invalid
    JSON, a missing key, or bad term, type, position, node or flavor syntax.

    `node` is the index in `"nodes"` of the derivation entry at fault, and
    `position` that entry's position when its `pos` text reads; both are
    None when no entry is at fault or its position is unknown."""

    def __init__(
        self, message: str, node: Optional[int] = None, position: Optional[Position] = None
    ) -> None:
        super().__init__(message)
        self.node = node
        self.position = position


_LOAD_FAULTS = (KeyError, ValueError, TypeError, AttributeError, RecursionError)


def _load_error(
    exc: Exception, node: Optional[int] = None, position: Optional[Position] = None
) -> LoadError:
    message = f"missing key {exc}" if isinstance(exc, KeyError) else f"{type(exc).__name__}: {exc}"
    return LoadError(message, node, position)


def derivation_from_json(data: dict) -> Derivation:
    """The derivation a file holds.  Each distinct type text is parsed once,
    so equal axiom types share one `SType` and its cached facts.  A fault in
    an entry of `"nodes"` is a LoadError naming the entry."""
    term = parse_term(data["term"])
    entries = data["nodes"]
    nodes: dict[Position, Node] = {}
    types: dict[str, SType] = {}
    i = a = None
    try:
        for i, entry in enumerate(entries):
            a = None  # until the entry's pos reads
            a = parse_position(entry["pos"])
            if a in nodes:
                raise ValueError(f"position {format_position(a)} is listed twice")
            kind = entry["kind"]
            if kind == "ax":
                track, text = json_integer(entry["track"]), entry["type"]
                stype = types.get(text) if type(text) is str else None  # else parse_type fails
                if stype is None:
                    stype = types[text] = parse_type(text)
                nodes[a] = AxNode(track, stype)
            elif kind == "abs":
                nodes[a] = AbsNode()
            elif kind == "app":
                args = frozenset(map(json_integer, entry["args"]))
                if len(args) < len(entry["args"]):
                    raise ValueError(f"an argument track at {format_position(a)} is listed twice")
                nodes[a] = AppNode(args)
            else:
                raise ValueError(f"unknown node kind {kind!r}")
    except _LOAD_FAULTS as exc:
        raise _load_error(exc, i, a) from exc
    return Derivation(term, data["flavor"], nodes)


def dumps_derivation(deriv: Derivation) -> str:
    """The file text of deriv: exactly `json.dumps(..., indent=2)` of its
    term, its flavor and its nodes in position order, as
    `{"pos", "kind", "track", "type"}` for an axiom, `{"pos", "kind"}` for an
    abstraction and `{"pos", "kind", "args"}` for an application.  Each node
    is written as one piece of text per kind; a position's text is digits,
    dots and `eps`, which the encoder leaves as they are."""
    nodes = deriv.nodes
    pieces = []
    for a in sorted(nodes):
        node = nodes[a]
        head = f'\n    {{\n      "pos": "{format_position(a)}",\n      "kind": '
        if type(node) is AxNode:
            text = _quote(print_type(node.stype))
            pieces.append(f'{head}"ax",\n      "track": {node.track},\n      "type": {text}\n    }}')
        elif type(node) is AbsNode:
            pieces.append(f'{head}"abs"\n    }}')
        elif node.arg_tracks:
            args = ",\n        ".join(map(str, sorted(node.arg_tracks)))
            pieces.append(f'{head}"app",\n      "args": [\n        {args}\n      ]\n    }}')
        else:
            pieces.append(f'{head}"app",\n      "args": []\n    }}')
    listed = ",".join(pieces) + "\n  " if pieces else ""
    term, flavor = _quote(print_term(deriv.term)), _quote(deriv.flavor)
    return f'{{\n  "term": {term},\n  "flavor": {flavor},\n  "nodes": [{listed}]\n}}\n'


def loads_json(text: str, build: Callable[[Any], T]) -> T:
    """Build a value from JSON text; invalid JSON, JSON nested deeper than
    the decoder's recursion allows, a missing key, or a value of the wrong
    kind or syntax is a LoadError."""
    try:
        return build(json.loads(text))
    except LoadError:
        raise
    except _LOAD_FAULTS as exc:
        raise _load_error(exc) from exc


def loads_derivation(text: str) -> Derivation:
    return loads_json(text, derivation_from_json)


def save_derivation(deriv: Derivation, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dumps_derivation(deriv))


def load_derivation(path: str) -> Derivation:
    with open(path) as handle:
        return loads_derivation(handle.read())
